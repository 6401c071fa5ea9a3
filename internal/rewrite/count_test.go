package rewrite_test

import (
	"math/rand"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
	"veriopt/internal/rewrite"
)

// countingModel is a base policy whose rules count their Applicable
// finder runs, rule by rule.
func countingModel() (*policy.Model, []int) {
	m := policy.New(policy.CapQwen3B, 1)
	finds := make([]int, len(m.Rules))
	rules := make([]*rewrite.Rule, len(m.Rules))
	for i, r := range m.Rules {
		rules[i] = rewrite.CountApplicable(r, &finds[i])
	}
	m.Rules = rules
	return m, finds
}

// TestEachRuleAskedOncePerStep: a rollout step asks every IR rule
// whether it applies exactly once — the candidate list and the work
// feature come from the same pass over the rules — before the chosen
// rule's Apply finds its place again. Generation and the warm-up's
// teacher (Model.Teach) are the same rollout. policy's own tests hold
// the masked step of a correction attempt, which asks a masked rule
// only when the work feature needs its answer.
func TestEachRuleAskedOncePerStep(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 42, N: 40, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, m *policy.Model, finds []int, steps int) {
		t.Helper()
		for i, r := range m.Rules {
			want := steps
			if r.Kind == rewrite.KindCorrupt {
				want = 0
			}
			if finds[i] != want {
				t.Errorf("%s: %s's finder ran %d times in %d steps, want %d", what, r.Name, finds[i], steps, want)
			}
		}
	}
	for _, opts := range []policy.GenOptions{{}, {Rng: rand.New(rand.NewSource(7))}, {Rng: rand.New(rand.NewSource(7)), Augmented: true}} {
		m, finds := countingModel()
		steps := 0
		for _, s := range samples {
			ep := m.Generate(s.O0, opts)
			steps += len(ep.Actions) + len(ep.CorrectionActs)
		}
		check("Generate", m, finds, steps)
	}
	m, finds := countingModel()
	steps := 0
	for _, s := range samples {
		_, recs := m.Teach(s.O0, m.HashFeatures(ir.CanonicalText(s.O0)))
		steps += len(recs)
	}
	check("Teach", m, finds, steps)
}
