package sft

import (
	"context"
	"reflect"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// testStack is the stack the package's tests share, so verdicts proved
// by one test are cache hits for the next.
var testStack = oracle.NewStack(oracle.Config{})

func corpus(t *testing.T, n int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 6, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestTeacherTrajectoryReachesOptimizedForm(t *testing.T) {
	samples := corpus(t, 20)
	m := policy.New(policy.CapQwen3B, 1)
	reachedBetter := 0
	for _, s := range samples {
		recs, reached := teacherTrajectory(m, s.O0)
		if len(recs) == 0 {
			t.Fatalf("%s: empty teacher trajectory", s.Name)
		}
		// The trajectory must end with STOP.
		last := recs[len(recs)-1]
		if last.Cands[last.Chosen] != m.ActStop() && len(recs) < m.Cap.MaxSteps {
			t.Errorf("%s: teacher did not stop", s.Name)
		}
		f, err := ir.ParseFunc(reached)
		if err != nil {
			t.Fatalf("%s: teacher output unparseable: %v", s.Name, err)
		}
		// Teacher output must be sound.
		res := alive.VerifyFuncs(s.O0, f, alive.DefaultOptions())
		if res.Verdict == alive.SemanticError {
			t.Fatalf("%s: teacher output unsound: %s", s.Name, res.Diag)
		}
		if reached != s.O0Text {
			reachedBetter++
		}
	}
	if reachedBetter < len(samples)/2 {
		t.Errorf("teacher changed only %d/%d inputs", reachedBetter, len(samples))
	}
}

func TestWarmUpImprovesTeacherLikelihood(t *testing.T) {
	samples := corpus(t, 25)
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
			recs, _ := teacherTrajectory(mm, s.O0)
			h := mm.HashFeatures(ir.CanonicalText(s.O0))
			rec := recs[0]
			probs := mm.Softmax(rec.Cands, rec.StepFrac, rec.Work, h, 1.0)
			total += probs[rec.Chosen]
		}
		return total / float64(len(samples))
	}

	before, untrained := prob(m), m.Clone()
	st, err := WarmUpCtx(context.Background(), m, samples, tr.Failures, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	after := prob(m)
	if after <= before {
		t.Errorf("teacher likelihood did not improve: %.3f -> %.3f", before, after)
	}
	if st.CloneSteps == 0 {
		t.Errorf("stats empty: %+v", st)
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
	samples := corpus(t, 20)
	m := policy.New(policy.CapQwen3B, 3)
	zero := m.Clone()
	tr := grpo.NewTrainer(testStack, zero, samples, grpo.DefaultConfig(), 8)
	tr.CollectFailures = true
	tr.TrainCtx(context.Background(), 4)
	if len(tr.Failures) == 0 {
		t.Skip("no failures harvested in this configuration")
	}
	if _, err := WarmUpCtx(context.Background(), m, samples, tr.Failures, DefaultConfig()); err != nil {
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
		probs := m.Diag.ClassProbs(f, 1.0)
		if probs[policy.DiagSyntaxError] > probs[policy.DiagOK] {
			correct++
		}
		total++
	}
	if total > 0 && correct*2 < total {
		t.Errorf("diag head classifies only %d/%d syntax failures correctly", correct, total)
	}
}
