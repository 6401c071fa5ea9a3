package pipeline

import (
	"context"
	"math"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/oracle"
	"veriopt/internal/seqopt"
)

func passesCorpus(t *testing.T, n int) (train, val []*dataset.Sample) {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 51, N: n})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err = dataset.Split(samples, 0.4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return train, val
}

// TestPassesSmoke is the workload acceptance gate (`make passes-smoke`):
// tiny corpus, short training run, beam baseline — then three hard
// assertions: (1) every emitted non-identity output is oracle-verified
// Equivalent, independently re-proven here with a fresh verifier call;
// (2) no method ever needed the fallback (the registry is sound); (3)
// the beam baseline strictly beats the fixed instcombine pipeline on
// geomean latency.
func TestPassesSmoke(t *testing.T) {
	train, val := passesCorpus(t, 60)
	cfg := DefaultPassesConfig()
	cfg.TrainSteps = 10
	res, err := RunPassesCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Samples() != len(val) {
		t.Fatalf("report covers %d samples, want %d", rep.Samples(), len(val))
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("report has %d rows, want 4", len(rep.Rows))
	}

	// (1) + (2): every accepted output re-verifies, no fallbacks.
	for _, d := range rep.details {
		for _, out := range d.outputs {
			if out.fallback {
				t.Errorf("%s/%s: fallback used (unverified output emitted)", d.sample.Name, out.method)
			}
			if !out.verified {
				t.Errorf("%s/%s: output not verified", d.sample.Name, out.method)
			}
			if len(out.sequence) == 0 {
				continue
			}
			vr := alive.VerifyFuncs(d.sample.O0, out.fn, alive.DefaultOptions())
			if vr.Verdict != alive.Equivalent {
				t.Errorf("%s/%s: emitted output fails independent re-verification: %s",
					d.sample.Name, out.method, vr.Diag)
			}
		}
	}

	// (3): beam strictly beats the fixed pipeline on geomean latency.
	fixed, beam := rep.Row(MethodFixed), rep.Row(MethodBeam)
	if fixed == nil || beam == nil {
		t.Fatal("missing fixed/beam rows")
	}
	if beam.GeoLatency >= fixed.GeoLatency {
		t.Errorf("beam geomean latency %.4f does not beat fixed instcombine %.4f",
			beam.GeoLatency, fixed.GeoLatency)
	}
	// Greedy sits between doing nothing and beam.
	greedy := rep.Row(methodGreedy)
	if greedy.GeoLatency > 1 || beam.GeoLatency > greedy.GeoLatency {
		t.Errorf("ordering violated: greedy %.4f, beam %.4f", greedy.GeoLatency, beam.GeoLatency)
	}
	// The trained policy must act: non-trivial sequences and some wins.
	policy := rep.Row(methodPolicy)
	if policy.Improved == 0 {
		t.Error("trained policy improved nothing")
	}
	if len(res.history) != cfg.TrainSteps {
		t.Errorf("history has %d entries, want %d", len(res.history), cfg.TrainSteps)
	}
}

// TestPassesEvalWorkerIndependence pins eval determinism: the
// rendered report is identical at Workers=1 and Workers=4 (run under
// -race in tier 2).
func TestPassesEvalWorkerIndependence(t *testing.T) {
	_, val := passesCorpus(t, 40)
	m := seqopt.NewModel(3)
	run := func(workers int) string {
		cfg := DefaultPassesConfig()
		cfg.Workers = workers
		rep, err := evaluatePasses(context.Background(), oracle.NewStack(oracle.Config{}), m, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("evaluation differs across worker counts:\n%s\nvs\n%s", a, b)
	}
}

// TestPassesTrainWorkerIndependence pins the full workload trajectory
// (training + eval) across worker counts.
func TestPassesTrainWorkerIndependence(t *testing.T) {
	train, val := passesCorpus(t, 40)
	run := func(workers int) string {
		cfg := DefaultPassesConfig()
		cfg.TrainSteps = 4
		cfg.Workers = workers
		res, err := RunPassesCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.String()
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("workload result differs across worker counts:\n%s\nvs\n%s", a, b)
	}
}

// TestPassesBench runs the pass-ordering workload cold, then repeats
// its evaluation: a warm verdict cache must answer the repeated
// searches with zero solver runs and the same report.
func TestPassesBench(t *testing.T) {
	train, val := passesCorpus(t, 40)
	stack := oracle.NewStack(oracle.Config{})
	cfg := DefaultPassesConfig()
	cfg.TrainSteps = 12

	res, err := RunPassesCtx(context.Background(), stack, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := stack.Engine.Stats()

	// Warm re-evaluation: identical searches against the warm cache
	// must perform zero additional solver (compute) runs.
	rep2, err := evaluatePasses(context.Background(), stack, res.Model, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmMisses := stack.Engine.Stats().Misses - coldStats.Misses; warmMisses != 0 {
		t.Errorf("warm re-evaluation ran the solver %d times, want 0", warmMisses)
	}
	if rep2.String() != res.Report.String() {
		t.Error("warm re-evaluation changed the report")
	}

}

// TestAggregatePassesDegenerate pins the geomean-poisoning fix: a
// sample with a zero metric on either side of the out/base ratio is
// skipped and counted rather than folding log(0)'s -Inf (or a
// division by zero's NaN) into the whole method row.
func TestAggregatePassesDegenerate(t *testing.T) {
	m := func(l, i, s int) costmodel.Metrics { return costmodel.Metrics{Latency: l, ICount: i, Size: s} }
	out := func(metrics costmodel.Metrics) []passesOutput {
		return []passesOutput{{method: MethodFixed, sequence: []string{"instcombine"}, metrics: metrics}}
	}
	cases := []struct {
		name    string
		details []*passesDetail
		wantGeo float64 // GeoLatency
		wantDeg int
	}{
		{
			name: "clean",
			details: []*passesDetail{
				{base: m(8, 8, 32), outputs: out(m(4, 4, 16))},
				{base: m(2, 2, 8), outputs: out(m(4, 4, 16))},
			},
			wantGeo: 1, wantDeg: 0, // ratios 0.5 and 2 cancel
		},
		{
			name: "zero output metric skipped",
			details: []*passesDetail{
				{base: m(8, 8, 32), outputs: out(m(4, 4, 16))},
				{base: m(8, 8, 32), outputs: out(m(0, 1, 4))},
			},
			wantGeo: 0.5, wantDeg: 1,
		},
		{
			name: "zero base metric skipped",
			details: []*passesDetail{
				{base: m(8, 8, 32), outputs: out(m(4, 4, 16))},
				{base: m(4, 4, 0), outputs: out(m(4, 4, 16))},
			},
			wantGeo: 0.5, wantDeg: 1,
		},
		{
			name: "all degenerate leaves identity geomean",
			details: []*passesDetail{
				{base: m(0, 0, 0), outputs: out(m(0, 0, 0))},
			},
			wantGeo: 1, wantDeg: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			row := aggregatePasses(MethodFixed, tc.details)
			if row.degenerate != tc.wantDeg {
				t.Errorf("Degenerate = %d, want %d", row.degenerate, tc.wantDeg)
			}
			if diff := row.GeoLatency - tc.wantGeo; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("GeoLatency = %v, want %v", row.GeoLatency, tc.wantGeo)
			}
			for _, g := range []float64{row.GeoLatency, row.geoICount, row.geoSize} {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Errorf("geomean not finite: %v", g)
				}
			}
		})
	}
}
