package policy

import (
	"reflect"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

func TestTeachReachesOptimizedForm(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 6, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	m := New(CapQwen3B, 1)
	reachedBetter := 0
	for _, s := range samples {
		reached, teacher := m.Teach(s.O0)
		recs := teacher.Actions
		if len(recs) == 0 {
			t.Fatalf("%s: empty teacher trajectory", s.Name)
		}
		// The trajectory must end with STOP, and pick only real work
		// before it.
		for i, r := range recs {
			a := r.Cands[r.Chosen]
			if last := i == len(recs)-1; last && a != m.ActStop() && len(recs) < m.Cap.MaxSteps {
				t.Errorf("%s: teacher did not stop", s.Name)
			} else if !last && (a >= len(m.Rules) || !doesWork(m.Rules[a])) {
				t.Errorf("%s: teacher step %d picked action %d, which is no real work", s.Name, i, a)
			}
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

// TestAvailableSkipsMaskedRulesTheWorkFeatureSkips: a masked rule is
// not asked whether it applies unless the work feature needs its
// answer. Over a nil function every IR rule's finder panics, so a step
// over masked rules that do no real work, and corruptions (never asked:
// they always apply), must answer without asking any. A masked rule
// that does real work is asked: it still counts toward the work
// feature, but is no candidate.
func TestAvailableSkipsMaskedRulesTheWorkFeatureSkips(t *testing.T) {
	m := New(CapQwen3B, 1)
	var rules []*rewrite.Rule
	var corrupt []int
	mask := map[string]bool{}
	for _, r := range m.Rules {
		if doesWork(r) {
			continue
		}
		if r.Kind == rewrite.KindCorrupt {
			corrupt = append(corrupt, len(rules))
		} else {
			mask[r.Name] = true
			func() {
				defer func() { recover() }()
				r.Applicable(nil)
				t.Fatalf("%s answers over a nil function: the probe cannot see it asked", r.Name)
			}()
		}
		rules = append(rules, r)
	}
	m.Rules = rules
	cands, work := m.available(nil, mask)
	if want := append(corrupt, m.ActStop(), m.ActFormatBreak()); !reflect.DeepEqual(cands, want) || work != 0 {
		t.Errorf("available over masked non-work rules = %v, %v; want %v, 0", cands, work, want)
	}

	m = New(CapQwen3B, 1)
	f := testFn(t)
	all, allWork := m.available(f, nil)
	cands, work = m.available(f, map[string]bool{"combine-step": true})
	var want []int
	for _, a := range all {
		if a >= len(m.Rules) || m.Rules[a].Name != "combine-step" {
			want = append(want, a)
		}
	}
	if len(want) == len(all) || allWork == 0 {
		t.Fatalf("combine-step does not apply to the test function: %v, work %v", all, allWork)
	}
	if !reflect.DeepEqual(cands, want) || work != allWork {
		t.Errorf("masking combine-step: %v, work %v; want %v, work %v", cands, work, want, allWork)
	}
}
