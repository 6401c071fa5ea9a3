package pipeline

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
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
	var trace bytes.Buffer
	cfg.Obs = obs.New(&trace)
	res, err := RunPassesCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Methods) != 4 || len(rep.Reports) != 4 {
		t.Fatalf("report has %d methods and %d reports, want 4", len(rep.Methods), len(rep.Reports))
	}

	// (1) + (2): every accepted output re-verifies, no fallbacks.
	for i, r := range rep.Reports {
		if r.Total() != len(val) || r.Skipped != 0 {
			t.Fatalf("%s covers %d samples (%d skipped), want %d", rep.Methods[i], r.Total(), r.Skipped, len(val))
		}
		for _, res := range r.results {
			if res.usedFallback {
				t.Errorf("%s/%s: fallback used (unverified output emitted)", res.sample.Name, rep.Methods[i])
			}
			if res.verdict != alive.Equivalent {
				t.Errorf("%s/%s: output not verified", res.sample.Name, rep.Methods[i])
			}
			if len(res.seq) == 0 {
				continue
			}
			vr := alive.VerifyFuncs(res.sample.O0, res.fn, alive.DefaultOptions())
			if vr.Verdict != alive.Equivalent {
				t.Errorf("%s/%s: emitted output fails independent re-verification: %s",
					res.sample.Name, rep.Methods[i], vr.Diag)
			}
		}
	}

	// (3): beam strictly beats the fixed pipeline on geomean latency.
	fixed, beam, greedy := rep.Method(MethodFixed), rep.Method(MethodBeam), rep.Method(methodGreedy)
	if fixed == nil || beam == nil || greedy == nil {
		t.Fatal("missing fixed/greedy/beam reports")
	}
	geo := func(r *Report) float64 { return GeomeanRatio(r, MetricLatency) }
	if geo(beam) >= geo(fixed) {
		t.Errorf("beam geomean latency %.4f does not beat fixed instcombine %.4f", geo(beam), geo(fixed))
	}
	// Greedy sits between doing nothing and beam.
	if geo(greedy) > 1 || geo(beam) > geo(greedy) {
		t.Errorf("ordering violated: greedy %.4f, beam %.4f", geo(greedy), geo(beam))
	}
	// The trained policy must act: non-trivial sequences and some wins.
	if OutcomesVsO0(rep.Method(methodPolicy), MetricLatency).Better == 0 {
		t.Error("trained policy improved nothing")
	}
	// The training stage's trace counts one step per reward entry.
	trained := -1
	for _, ev := range traceEvents(t, trace.String()) {
		if ev.Kind == "stage_end" && ev.Stage == "seq-train" {
			trained = ev.Steps
		}
	}
	if trained != cfg.TrainSteps {
		t.Errorf("seq-train trained %d steps, want %d", trained, cfg.TrainSteps)
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

// TestAggregatePassesDegenerate pins the geomean-poisoning fix on the table's
// shared aggregates: a zero metric on either side of an out/base ratio
// is skipped from that metric's geomean rather than folding log(0)'s
// -Inf (or a division by zero's NaN) into it, and the Degen column
// counts the samples the latency geomean skipped. The skip is per
// metric: a zero Size drops the sample from the Size geomean only.
func TestAggregatePassesDegenerate(t *testing.T) {
	m := func(l, i, s int) costmodel.Metrics { return costmodel.Metrics{Latency: l, ICount: i, Size: s} }
	res := func(base, out costmodel.Metrics) *sampleResult { return &sampleResult{base: base, out: out} }
	cases := []struct {
		name    string
		results []*sampleResult
		wantGeo [3]float64 // Latency, ICount, Size
		wantDeg int
	}{
		{
			name:    "clean",
			results: []*sampleResult{res(m(8, 8, 32), m(4, 4, 16)), res(m(2, 2, 8), m(4, 4, 16))},
			wantGeo: [3]float64{1, 1, 1}, wantDeg: 0, // ratios 0.5 and 2 cancel
		},
		{
			name:    "zero output metric skipped",
			results: []*sampleResult{res(m(8, 8, 32), m(4, 4, 16)), res(m(8, 8, 32), m(0, 1, 4))},
			wantGeo: [3]float64{0.5, 0.25, 0.25}, wantDeg: 1,
		},
		{
			name:    "zero base metric skipped",
			results: []*sampleResult{res(m(8, 8, 32), m(4, 4, 16)), res(m(4, 4, 0), m(4, 4, 16))},
			wantGeo: [3]float64{math.Sqrt(0.5), math.Sqrt(0.5), 0.5}, wantDeg: 0,
		},
		{
			name:    "all degenerate leaves identity geomean",
			results: []*sampleResult{res(m(0, 0, 0), m(0, 0, 0))},
			wantGeo: [3]float64{1, 1, 1}, wantDeg: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := tally(tc.results)
			if _, deg := ratio(rep, MetricLatency); deg != tc.wantDeg {
				t.Errorf("Degen = %d, want %d", deg, tc.wantDeg)
			}
			for i, metric := range []Metric{MetricLatency, MetricICount, MetricSize} {
				g := GeomeanRatio(rep, metric)
				if diff := g - tc.wantGeo[i]; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("%s geomean = %v, want %v", metric, g, tc.wantGeo[i])
				}
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Errorf("%s geomean not finite: %v", metric, g)
				}
			}
		})
	}
}

// TestJudgeKeepsReturnedInputWithoutQuery: a method that hands back
// its input is kept as it is, Equivalent with no query and no
// fallback, as a search that found nothing better does.
func TestJudgeKeepsReturnedInputWithoutQuery(t *testing.T) {
	_, val := passesCorpus(t, 8)
	s := val[0]
	var queries atomic.Int64
	counting := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		queries.Add(1)
		return testStack.Verify(ctx, src, tgt, opts)
	})
	res := judge(context.Background(), counting, s, s.O0, alive.Result{}, alive.DefaultOptions())
	if q := queries.Load(); q != 0 {
		t.Errorf("%d queries for the returned input, want 0", q)
	}
	if res.verdict != alive.Equivalent || res.usedFallback || res.out != res.base {
		t.Errorf("returned input judged %v, fallback %v, out %v (base %v)", res.verdict, res.usedFallback, res.out, res.base)
	}
}
