package pipeline

import (
	"context"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/policy"
)

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
	cached, _ = RunCtx(context.Background(), train, cfg)
	cachedVal = val
	return cached, cachedVal
}

// evaluate is EvaluateCtx under a context that never ends, where the
// only error is nil.
func evaluate(m *policy.Model, samples []*dataset.Sample, augmented bool, cfg EvalConfig) *Report {
	rep, _ := EvaluateCtx(context.Background(), m, samples, augmented, cfg)
	return rep
}

func TestCurriculumImprovesDifferentCorrect(t *testing.T) {
	res, val := smallRun(t)
	base := evaluate(res.Base, val, false, EvalConfig{})
	lat := evaluate(res.Latency, val, false, EvalConfig{})
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
	base := evaluate(res.Base, val, false, EvalConfig{})
	lat := evaluate(res.Latency, val, false, EvalConfig{})
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
	rep := evaluate(res.Base, val, false, EvalConfig{})
	for _, r := range rep.results {
		if r.usedFallback && r.out != r.base {
			t.Fatal("fallback did not restore the O0 metrics")
		}
		if r.verdict != alive.Equivalent && !r.usedFallback {
			t.Fatal("unverified output accepted without fallback")
		}
	}
}

func TestReportCountsConsistent(t *testing.T) {
	res, val := smallRun(t)
	rep := evaluate(res.Correctness, val, true, EvalConfig{})
	if rep.Correct+rep.Semantic+rep.Syntax+rep.Inconclusive != rep.Total() {
		t.Errorf("verdict counts do not partition the total: %+v", rep)
	}
	if rep.Copies > rep.Correct {
		t.Error("copies exceed correct count")
	}
}

func TestOutcomesArithmetic(t *testing.T) {
	res, val := smallRun(t)
	rep := evaluate(res.Latency, val, false, EvalConfig{})
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
	rep := evaluate(res.Latency, val, false, EvalConfig{})
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
	corr := evaluate(res.Correctness, val, true, EvalConfig{})
	lat := evaluate(res.Latency, val, false, EvalConfig{})
	if lat.CorrectFrac() < corr.CorrectFrac()-0.25 {
		t.Errorf("latency stage lost too much correctness: %.2f -> %.2f",
			corr.CorrectFrac(), lat.CorrectFrac())
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	res, val := smallRun(t)
	a := evaluate(res.Latency, val[:10], false, EvalConfig{})
	b := evaluate(res.Latency, val[:10], false, EvalConfig{})
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
