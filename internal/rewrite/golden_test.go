package rewrite

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/rules_golden.json from this tree's rules")

// ruleGolden is everything one rule says and does over the corpus.
// Applicable and Fired count the functions it matched and rewrote;
// Digest is the sha256 of every answer and every rewritten text.
type ruleGolden struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Applicable int    `json:"applicable"`
	Fired      int    `json:"fired"`
	Digest     string `json:"digest"`
}

// TestRulesMatchGolden pins the action space: over goldenStates (the
// -n 600 -seed 42 corpus's O0 and Ref functions first) and every rule
// of All() in order, what Applicable answers, the canonical text Apply
// leaves under rand.NewSource(i) and under a nil rng, and what
// ApplyText writes. The golden was written by this test (-update) at the commit
// before a rule's match and rewrite were declared once, so a predicate
// that moved while being merged shows here as that rule's digest.
//
// Two contracts ride along, for every IR rule on every function: an
// Apply that reports false has left the text untouched, and a rule
// that is not Applicable does not Apply.
func TestRulesMatchGolden(t *testing.T) {
	const path = "testdata/rules_golden.json"
	rules := All()
	states := goldenStates(t, rules)
	got := make([]ruleGolden, len(rules))
	for ri, r := range rules {
		g := ruleGolden{Name: r.Name, Kind: r.Kind.String()}
		h := sha256.New()
		for i, f := range states {
			if r.Kind == KindCorrupt {
				fmt.Fprintf(h, "%q\n", r.ApplyText(ir.CanonicalText(f), rand.New(rand.NewSource(int64(i)))))
				continue
			}
			ok := r.Applicable(f)
			fmt.Fprintf(h, "%v\n", ok)
			if ok {
				g.Applicable++
			}
			if applyGolden(t, h, r, f, ok, rand.New(rand.NewSource(int64(i)))) {
				g.Fired++
			}
			applyGolden(t, h, r, f, ok, nil)
		}
		g.Digest = hex.EncodeToString(h.Sum(nil))
		got[ri] = g
	}
	blob, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blob, want) {
		return
	}
	var wantRules []ruleGolden
	if err := json.Unmarshal(want, &wantRules); err != nil {
		t.Fatal(err)
	}
	if len(wantRules) != len(got) {
		t.Fatalf("All() has %d rules, golden has %d", len(got), len(wantRules))
	}
	for i := range got {
		if got[i] != wantRules[i] {
			t.Errorf("rule %d differs from the golden:\n got %+v\nwant %+v", i, got[i], wantRules[i])
		}
	}
}

// goldenStates is what the rules are asked about: for each sample its
// O0 and Ref functions and two states a policy reaches from O0 — after
// extra-mem2reg (phis and diamonds) and after every extra rule has run
// dry (selects, merged blocks) — then this package's hand-written
// inputs, for the shapes the corpus does not hold (an srem by a power
// of two, a branch and a switch on a constant).
func goldenStates(t *testing.T, rules []*Rule) []*ir.Function {
	samples, err := dataset.Generate(dataset.Config{Seed: 42, N: 600})
	if err != nil {
		t.Fatal(err)
	}
	var states []*ir.Function
	for _, s := range samples {
		promoted := ir.CloneFunc(s.O0)
		for _, r := range rules {
			if r.Name == "extra-mem2reg" {
				r.Apply(promoted, nil)
			}
		}
		simplified := ir.CloneFunc(promoted)
		for fired, n := true, 0; fired && n < 64; n++ {
			fired = false
			for _, r := range rules {
				if r.Kind == KindExtra && r.Apply(simplified, nil) {
					fired = true
				}
			}
		}
		states = append(states, s.O0, s.Ref, promoted, simplified)
	}
	for _, src := range []string{o0Style, diamondSrc, constBranchSrc, constSwitchSrc} {
		states = append(states, parse(t, src))
	}
	for _, r := range rules {
		if src, ok := unsoundWitnesses[r.Name]; ok {
			states = append(states, parse(t, src))
		}
	}
	return states
}

// applyGolden applies r to a copy of f, writes the outcome and the
// canonical text it left to h, and holds the two contracts.
func applyGolden(t *testing.T, h hash.Hash, r *Rule, f *ir.Function, applicable bool, rng *rand.Rand) bool {
	t.Helper()
	g := ir.CloneFunc(f)
	before := ir.FuncString(g)
	fired := r.Apply(g, rng)
	if fired && !applicable {
		t.Fatalf("%s is not Applicable to %s but Apply fired", r.Name, f.NameStr)
	}
	if after := ir.FuncString(g); !fired && after != before {
		t.Fatalf("%s on %s reported false but changed the function:\n%s\nwas:\n%s", r.Name, f.NameStr, after, before)
	}
	fmt.Fprintf(h, "%v\n%s", fired, ir.CanonicalText(g))
	return fired
}
