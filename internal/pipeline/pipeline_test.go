package pipeline

import (
	"context"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// testStack is the stack the package's tests share where they do not
// build their own: smallRun trains on it and the evaluations of its
// models re-prove the same outputs from its cache.
var testStack = oracle.NewStack(oracle.Config{})

// smallRun executes a reduced curriculum once per test binary.
var cached *Result
var cachedVal []*dataset.Sample

func smallRun(t *testing.T) (*Result, []*dataset.Sample) {
	t.Helper()
	if cached != nil {
		return cached, cachedVal
	}
	samples, err := dataset.Generate(dataset.Config{Seed: 42, N: 90})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := dataset.Split(samples, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStageConfig()
	cfg.Stage1Steps = 6
	cfg.Stage2Steps = 40
	cfg.Stage3Steps = 30
	cached, _ = RunCtx(context.Background(), testStack, train, cfg)
	cachedVal = val
	return cached, cachedVal
}

// evaluate is EvaluateCtx under a context that never ends, where the
// only error is nil.
func evaluate(o oracle.Oracle, m *policy.Model, samples []*dataset.Sample, augmented bool, cfg EvalConfig) *Report {
	rep, _ := EvaluateCtx(context.Background(), o, m, samples, augmented, cfg)
	return rep
}

func TestCurriculumImprovesDifferentCorrect(t *testing.T) {
	res, val := smallRun(t)
	base := evaluate(testStack, res.Base, val, false, EvalConfig{})
	lat := evaluate(testStack, res.Latency, val, false, EvalConfig{})
	if lat.DifferentCorrectFrac() <= base.DifferentCorrectFrac() {
		t.Errorf("different-correct did not improve: base %.2f, latency %.2f",
			base.DifferentCorrectFrac(), lat.DifferentCorrectFrac())
	}
	// The paper's headline: a large multiple over the base model.
	if lat.DifferentCorrectFrac() < 2*base.DifferentCorrectFrac() {
		t.Errorf("improvement below 2x: base %.2f, latency %.2f",
			base.DifferentCorrectFrac(), lat.DifferentCorrectFrac())
	}
}

func TestCurriculumImprovesSpeedup(t *testing.T) {
	res, val := smallRun(t)
	base := evaluate(testStack, res.Base, val, false, EvalConfig{})
	lat := evaluate(testStack, res.Latency, val, false, EvalConfig{})
	bs, ls := GeomeanSpeedup(base), GeomeanSpeedup(lat)
	if ls <= bs {
		t.Errorf("speedup did not improve: base %.3f, latency %.3f", bs, ls)
	}
	ref := RefGeomeanSpeedup(lat)
	if ls < 0.45*ref {
		t.Errorf("latency model speedup %.2f far below instcombine %.2f", ls, ref)
	}
}

func TestFallbackRuleNeverWorseOnFailures(t *testing.T) {
	res, val := smallRun(t)
	rep := evaluate(testStack, res.Base, val, false, EvalConfig{})
	for _, r := range rep.results {
		if r.usedFallback && r.out != r.base {
			t.Fatal("fallback did not restore the O0 metrics")
		}
		if r.verdict != alive.Equivalent && !r.usedFallback {
			t.Fatal("unverified output accepted without fallback")
		}
	}
}

// TestEvaluateAsksOneQueryPerSample: evaluation accepts through
// oracle.Accept, so an augmented run asks at most one query per sample
// even where the model corrected its attempt: no report reads the
// attempt's verdict, so it is never asked.
func TestEvaluateAsksOneQueryPerSample(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 5, N: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := policy.New(policy.CapQwen3B, 7)
	m.SelfCorrectGate = 2 // open, as grpo's golden opens it
	// and diagnose every attempt a semantic error, so each corrects
	m.Diag.W[policy.DiagSemanticError][0] = 5
	corrected := 0
	for _, s := range samples {
		if ep := m.Generate(s.O0, policy.GenOptions{Augmented: true}); ep.AttemptText != ep.FinalText {
			corrected++
		}
	}
	if corrected == 0 {
		t.Fatal("no sample's answer differs from its attempt: the test exercises no correction")
	}
	var queries atomic.Int64
	counting := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		queries.Add(1)
		return testStack.Verify(ctx, src, tgt, opts)
	})
	rep := evaluate(counting, m, samples, true, EvalConfig{Workers: 2})
	if q := queries.Load(); q > int64(len(samples)) {
		t.Fatalf("%d queries for %d samples (%d corrected)", q, len(samples), corrected)
	}
	if rep.Total() != len(samples) {
		t.Fatalf("evaluated %d of %d samples", rep.Total(), len(samples))
	}
}

func TestReportCountsConsistent(t *testing.T) {
	res, val := smallRun(t)
	rep := evaluate(testStack, res.Correctness, val, true, EvalConfig{})
	if rep.Correct+rep.Semantic+rep.Syntax+rep.Inconclusive != rep.Total() {
		t.Errorf("verdict counts do not partition the total: %+v", rep)
	}
	if rep.Copies > rep.Correct {
		t.Error("copies exceed correct count")
	}
}

func TestOutcomesArithmetic(t *testing.T) {
	res, val := smallRun(t)
	rep := evaluate(testStack, res.Latency, val, false, EvalConfig{})
	for _, m := range []Metric{MetricLatency, MetricSize, MetricICount} {
		o := OutcomesVsO0(rep, m)
		if o.Better+o.Worse+o.Tie != rep.Total() {
			t.Errorf("%v: outcomes do not sum to total", m)
		}
		v := VsInstCombine(rep, m)
		if v.Better+v.Worse+v.Tie != rep.Total() {
			t.Errorf("%v: vs-instcombine outcomes do not sum", m)
		}
	}
}

func TestGeomeanRelationships(t *testing.T) {
	res, val := smallRun(t)
	rep := evaluate(testStack, res.Latency, val, false, EvalConfig{})
	sp := GeomeanSpeedup(rep)
	ratio := GeomeanRatio(rep, MetricLatency)
	if sp <= 0 || ratio <= 0 {
		t.Fatal("non-positive geomeans")
	}
	if (sp-1/ratio) > 1e-9 || (1/ratio-sp) > 1e-9 {
		t.Errorf("speedup %v != 1/ratio %v", sp, 1/ratio)
	}
	hg := HybridGeomeanGain(rep, MetricLatency)
	if hg < 1 {
		t.Errorf("hybrid gain %v < 1; taking min cannot lose", hg)
	}
}

func TestTrainingHistoriesRecorded(t *testing.T) {
	res, _ := smallRun(t)
	if len(res.zeroHistory) == 0 || len(res.CorrectnessHistory) == 0 || len(res.LatencyHistory) == 0 {
		t.Error("missing reward histories (needed for Fig. 4)")
	}
	if len(res.Failures) == 0 {
		t.Error("no diagnostic-augmented samples harvested")
	}
	if res.UMax <= 1 {
		t.Errorf("UMax = %v", res.UMax)
	}
}

func TestLatencyStagePreservesCorrectness(t *testing.T) {
	// Table II: Model-Latency's correctness stays comparable to
	// Model-Correctness (within a tolerance band for the small run).
	res, val := smallRun(t)
	corr := evaluate(testStack, res.Correctness, val, true, EvalConfig{})
	lat := evaluate(testStack, res.Latency, val, false, EvalConfig{})
	if lat.CorrectFrac() < corr.CorrectFrac()-0.25 {
		t.Errorf("latency stage lost too much correctness: %.2f -> %.2f",
			corr.CorrectFrac(), lat.CorrectFrac())
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	res, val := smallRun(t)
	a := evaluate(testStack, res.Latency, val[:10], false, EvalConfig{})
	b := evaluate(testStack, res.Latency, val[:10], false, EvalConfig{})
	for i := range a.results {
		if a.results[i].verdict != b.results[i].verdict || a.results[i].out != b.results[i].out {
			t.Fatal("evaluation not deterministic")
		}
	}
}

func TestMetricsPositive(t *testing.T) {
	_, val := smallRun(t)
	for _, s := range val {
		ms := costmodel.Measure(s.O0)
		if ms.Latency <= 0 || ms.Size <= 0 || ms.ICount <= 0 {
			t.Fatalf("non-positive metrics for %s: %+v", s.Name, ms)
		}
	}
	_ = policy.CapQwen3B
}
