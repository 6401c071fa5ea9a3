package pipeline

import (
	"context"
	"reflect"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
)

func warmupCorpus(t *testing.T, n int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 6, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestWarmUpImprovesTeacherLikelihood(t *testing.T) {
	samples := warmupCorpus(t, 25)
	m := policy.New(policy.CapQwen3B, 2)

	// Harvest failures from a couple of Model Zero steps.
	zero := m.Clone()
	tr := grpo.NewTrainer(testStack, zero, samples, grpo.DefaultConfig(), 7)
	tr.CollectFailures = true
	tr.TrainCtx(context.Background(), 3)

	prob := func(mm *policy.Model) float64 {
		// Mean probability assigned to the teacher action at step 0.
		total := 0.0
		for _, s := range samples {
			h := mm.HashFeatures(ir.CanonicalText(s.O0))
			_, recs := mm.Teach(s.O0, h)
			rec := recs[0]
			probs := mm.Softmax(rec.Cands, rec.StepFrac, rec.Work, h)
			total += probs[rec.Chosen]
		}
		return total / float64(len(samples))
	}

	before, untrained := prob(m), m.Clone()
	steps, err := WarmUpCtx(context.Background(), m, samples, tr.Failures, 3)
	if err != nil {
		t.Fatal(err)
	}
	after := prob(m)
	if after <= before {
		t.Errorf("teacher likelihood did not improve: %.3f -> %.3f", before, after)
	}
	if steps == 0 {
		t.Error("warm-up took no behaviour-cloning step")
	}
	// The diagnostic head trains whether or not failures were harvested
	// (every first-time sample is an OK example), so its weights move.
	if reflect.DeepEqual(m.Diag.W, untrained.Diag.W) {
		t.Error("warm-up left the diagnostic head's weights untouched")
	}
	if m.SelfCorrectGate <= 0 {
		t.Error("warm-up should enable the self-correction gate")
	}
}

func TestWarmUpTrainsDiagnosticHead(t *testing.T) {
	samples := warmupCorpus(t, 20)
	m := policy.New(policy.CapQwen3B, 3)
	zero := m.Clone()
	tr := grpo.NewTrainer(testStack, zero, samples, grpo.DefaultConfig(), 8)
	tr.CollectFailures = true
	tr.TrainCtx(context.Background(), 4)
	if len(tr.Failures) == 0 {
		t.Skip("no failures harvested in this configuration")
	}
	if _, err := WarmUpCtx(context.Background(), m, samples, tr.Failures, 3); err != nil {
		t.Fatal(err)
	}

	// The trained head must classify a corrupt trajectory as a syntax
	// error and a clean trajectory as OK, more often than not.
	correct := 0
	total := 0
	for _, fs := range tr.Failures {
		if fs.TrueClass != policy.DiagSyntaxError {
			continue
		}
		h := m.HashFeatures(ir.CanonicalText(fs.Sample.O0))
		recs := []policy.ActionRecord{}
		for _, name := range fs.UsedRules {
			for i, r := range m.Rules {
				if r.Name == name {
					recs = append(recs, policy.ActionRecord{Cands: []int{i}, Chosen: 0})
				}
			}
		}
		f := m.DiagFeatures(h, recs)
		probs := m.Diag.ClassProbs(f)
		if probs[policy.DiagSyntaxError] > probs[policy.DiagOK] {
			correct++
		}
		total++
	}
	if total > 0 && correct*2 < total {
		t.Errorf("diag head classifies only %d/%d syntax failures correctly", correct, total)
	}
}
