package experiments

import (
	"context"
	"errors"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
)

// evaluate is pipeline.EvaluateCtx under a context that never ends,
// where the only error is nil.
func evaluate(m *policy.Model, samples []*dataset.Sample, augmented bool) *pipeline.Report {
	rep, _ := pipeline.EvaluateCtx(context.Background(), testStack, m, samples, augmented, pipeline.EvalConfig{})
	return rep
}

func TestSuiteOrderAndNames(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 4, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := baselineSuite(context.Background(), samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 6 {
		t.Fatalf("suite size %d, want 6", len(suite))
	}
	for i := 1; i < len(suite); i++ {
		if suite[i].params < suite[i-1].params {
			t.Errorf("suite not ordered by size: %s (%v) after %s (%v)",
				suite[i].name, suite[i].params, suite[i-1].name, suite[i-1].params)
		}
	}
	for _, b := range suite {
		if b.model == nil {
			t.Errorf("%s: nil model", b.name)
		}
	}
}

func TestSFTBaselineBeatsUntrained(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 8, N: 60})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := dataset.Split(samples, 0.33, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := policy.New(policy.CapQwen3B, 9)
	baseRep := evaluate(base, val, false)
	sftB, err := sftBaseline(context.Background(), policy.CapQwen3B, 3, train, 9)
	if err != nil {
		t.Fatal(err)
	}
	sftRep := evaluate(sftB.model, val, false)
	if sftRep.DifferentCorrectFrac() <= baseRep.DifferentCorrectFrac() {
		t.Errorf("SFT (%.2f) did not beat untrained (%.2f) on different-correct",
			sftRep.DifferentCorrectFrac(), baseRep.DifferentCorrectFrac())
	}
}

// TestCanceledBaselinesNotKept: under a canceled context the SFT
// baselines stop training, return the context's error and leave
// nothing cached, as a canceled curriculum run does.
func TestCanceledBaselinesNotKept(t *testing.T) {
	c := NewContext(testConfig(), testStack)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx
	if bl, err := c.baselines(); !errors.Is(err, context.Canceled) || bl != nil {
		t.Fatalf("canceled baselines: got %d baselines, %v; want none and context.Canceled", len(bl), err)
	}
	if c.bl != nil {
		t.Fatalf("canceled suite cached: %d baselines", len(c.bl))
	}
}

func TestLLMCompilerProfile(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 10, N: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := llmCompiler(3)
	// One report per sample: a sample matches instcombine exactly when
	// its output verified, is not a copy of the input, and ties the
	// reference on every metric.
	syntax, exact, total := 0, 0, 0
	for _, s := range samples {
		rep := evaluate(b.model, []*dataset.Sample{s}, false)
		syntax += rep.Syntax
		total += rep.Total()
		if rep.Correct == 1 && rep.Copies == 0 && tiesReference(rep) {
			exact++
		}
	}
	// The LLM-Compiler analogue compiles nearly always (the paper
	// reports 95.6%) ...
	synFrac := float64(syntax) / float64(total)
	if synFrac > 0.15 {
		t.Errorf("LLM-Compiler analogue syntax-error rate %.2f too high", synFrac)
	}
	// ... but rarely matches instcombine exactly.
	if float64(exact)/float64(total) > 0.6 {
		t.Errorf("LLM-Compiler analogue matches the optimized form too often (%d/%d)", exact, total)
	}
}

// tiesReference reports whether a one-sample report's output has the
// instcombine reference's latency, size and instruction count.
func tiesReference(rep *pipeline.Report) bool {
	for _, m := range []pipeline.Metric{pipeline.MetricLatency, pipeline.MetricSize, pipeline.MetricICount} {
		if pipeline.VsInstCombine(rep, m).Tie != 1 {
			return false
		}
	}
	return true
}

func TestScaleImprovesQuality(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 80})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := dataset.Split(samples, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	small, err := sftBaseline(context.Background(), policy.CapQwen05B, 0.5, train, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sftBaseline(context.Background(), policy.CapQwen32B, 32, train, 7)
	if err != nil {
		t.Fatal(err)
	}
	smallRep := evaluate(small.model, val, false)
	bigRep := evaluate(big.model, val, false)
	if bigRep.CorrectFrac() < smallRep.CorrectFrac()-0.05 {
		t.Errorf("32B analogue (%.2f) below 0.5B analogue (%.2f) on correctness",
			bigRep.CorrectFrac(), smallRep.CorrectFrac())
	}
}
