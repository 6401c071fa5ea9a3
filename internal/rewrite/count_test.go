package rewrite_test

import (
	"context"
	"math/rand"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/policy"
	"veriopt/internal/rewrite"
	"veriopt/internal/sft"
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
// rule's Apply finds its place again; sft's teacher walks the same way.
// A masked rule is not asked at all, unless the work feature needs its
// answer, and then once.
func TestEachRuleAskedOncePerStep(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 42, N: 40, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	mask := map[string]bool{"combine-step": true, "unsound-add-flags": true}
	check := func(what string, m *policy.Model, finds []int, steps int, mask map[string]bool) {
		t.Helper()
		for i, r := range m.Rules {
			want := steps
			isWork := r.Kind == rewrite.KindSound && r.Name != "cosmetic-reorder"
			if r.Kind == rewrite.KindCorrupt || (mask[r.Name] && !isWork) {
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
		check("Generate", m, finds, steps, nil)
	}
	// A mask (the correction attempt's) reaches the rules through
	// Available, one step per call.
	m, finds := countingModel()
	for _, s := range samples {
		m.Available(s.O0, mask)
	}
	check("Available", m, finds, len(samples), mask)
	m, finds = countingModel()
	st, err := sft.WarmUpCtx(context.Background(), m, samples, nil, sft.Config{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("sft.WarmUpCtx", m, finds, st.CloneSteps, nil)
}
