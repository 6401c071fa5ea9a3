package seqopt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// exactRules and exactPasses answer exactly when acting fires: they
// are instcombine's steps. Every other finder may say yes where its
// action then declines (mem2reg's promote-then-verify, for one).
var (
	exactRules  = map[string]bool{"combine-step": true, "forward-loads": true, "remove-dead-allocas": true}
	exactPasses = map[string]bool{"combine": true, "forward-loads": true, "drop-dead-allocas": true}
)

// checkFinders holds every non-corrupt rule and every pass to its
// finder on f: the finder says yes whenever acting on a copy fires,
// instcombine's steps and RunInPlace say yes exactly then, asking
// leaves f's text and instruction objects as they were, and what
// acting leaves still verifies. With allocs
// set, a finder that says no must also have allocated nothing. Each
// pass's Apply must also equal, in text and changed flag, its step run
// to a fixpoint on a clone (run; for instcombine, a change confirmed
// against f), so asking the finder first, mem2reg's first round through
// rewrite.PromoteCopy and the copier's reuse add nothing but saved
// memory; applied counts, per pass, the Applies that changed f. It
// reports how many answers were no.
func checkFinders(t testing.TB, what string, f *ir.Function, allocs bool, applied map[string]int) (noes int) {
	t.Helper()
	text, instrs := ir.FuncString(f), layout(f)
	probe := func(who string, find func(*ir.Function) bool) bool {
		t.Helper()
		ok := find(f)
		if got := ir.FuncString(f); got != text {
			t.Fatalf("%s: asking %s changed the function:\n%s\nwas:\n%s", what, who, got, text)
		}
		if !slices.Equal(layout(f), instrs) {
			t.Fatalf("%s: asking %s moved or replaced an instruction", what, who)
		}
		if ok {
			return true
		}
		noes++
		if allocs {
			if n := testing.AllocsPerRun(2, func() { find(f) }); n != 0 {
				t.Fatalf("%s: %s's finder says no after %v allocations:\n%s", what, who, n, text)
			}
		}
		return false
	}
	for _, r := range rewrite.All() {
		if r.Kind == rewrite.KindCorrupt {
			continue
		}
		ok := probe(r.Name, r.Applicable)
		g := ir.CloneFunc(f)
		fired := r.Apply(g, rand.New(rand.NewSource(1)))
		if fired && !ok {
			t.Fatalf("%s: %s fires but its finder says no:\n%s", what, r.Name, text)
		}
		if err := ir.VerifyFunc(g); fired && err != nil {
			t.Fatalf("%s: %s leaves a function that does not verify: %v\n%s", what, r.Name, err, text)
		}
		if exactRules[r.Name] && ok != fired {
			t.Fatalf("%s: %s's finder says %v, acting fires %v:\n%s", what, r.Name, ok, fired, text)
		}
	}
	for _, p := range registry {
		ok := probe(p.name, func(g *ir.Function) bool { return p.step(g, false) })
		g := ir.CloneFunc(f)
		fired := p.run(g)
		if fired && !ok {
			t.Fatalf("%s: pass %s fires but its finder says no:\n%s", what, p.name, text)
		}
		if err := ir.VerifyFunc(g); fired && err != nil {
			t.Fatalf("%s: pass %s leaves a function that does not verify: %v\n%s", what, p.name, err, text)
		}
		if exactPasses[p.name] && ok != fired {
			t.Fatalf("%s: pass %s's finder says %v, running it fires %v:\n%s", what, p.name, ok, fired, text)
		}
		if fired && p.confirm && ir.FuncsStructurallyEqual(f, g) {
			fired = false
		}
		if !fired {
			g = f
		}
		out, changed := p.Apply(f)
		if got, want := ir.FuncString(out), ir.FuncString(g); changed != fired || got != want {
			t.Fatalf("%s: pass %s's Apply changed %v:\n%s\nits step to a fixpoint changed %v:\n%s", what, p.name, changed, got, fired, want)
		}
		if changed {
			applied[p.name]++
		}
	}
	ok := probe("RunInPlace", func(g *ir.Function) bool { return instcombine.RunInPlace(g, false) })
	if fired := instcombine.RunInPlace(ir.CloneFunc(f), true); ok != fired {
		t.Fatalf("%s: RunInPlace's finder says %v, running it fires %v:\n%s", what, ok, fired, text)
	}
	return noes
}

// finderTexts reach what the corpus's O0 functions never hold: a
// constant on the left of a commutative operation and of a compare (the
// combiner's two operand swaps), a branch on a constant, unused
// values, of which only the pure one is dead code, an alloca's
// address flowing into a phi, which escapes it, and an alloca's address
// stored in another alloca, which mem2reg promotes only in its second
// round.
var finderTexts = []string{`declare i32 @g(i32)

define i32 @unused(i32 noundef %x, i32 noundef %y) {
  %a = add i32 %x, 1
  %c = call i32 @g(i32 %x)
  %d = sdiv i32 %x, %y
  ret i32 %x
}
`, `define i32 @swaps(i32 noundef %x, i32 noundef %y) {
  %a = add i32 5, %x
  %c = icmp slt i32 7, %y
  %s = select i1 %c, i32 %a, i32 %y
  ret i32 %s
}
`, `define i32 @constbr(i32 noundef %x) {
entry:
  br i1 true, label %a, label %b

a:
  %y = add i32 %x, 0
  br label %j

b:
  br label %j

j:
  %p = phi i32 [ %y, %a ], [ 7, %b ]
  ret i32 %p
}
`, `define i32 @phiaddr(i1 noundef %c, i32 noundef %x) {
entry:
  %a = alloca i32
  %b = alloca i32
  store i32 %x, ptr %a
  store i32 7, ptr %b
  br i1 %c, label %l, label %r

l:
  br label %j

r:
  br label %j

j:
  %p = phi ptr [ %a, %l ], [ %b, %r ]
  %v = load i32, ptr %p
  %w = load i32, ptr %a
  %s = add i32 %v, %w
  ret i32 %s
}
`, `define i32 @twice(i32 noundef %x) {
  %p = alloca ptr
  %a = alloca i32
  store ptr %a, ptr %p
  %q = load ptr, ptr %p
  store i32 %x, ptr %q
  %v = load i32, ptr %q
  ret i32 %v
}
`}

// TestFindersAgreeWithApply walks the registry down from every O0
// function of the slice and from finderTexts, as
// TestInPlaceFalseLeavesFunctionUntouched does, and holds every rule
// and pass to its finder on each state, a finder that says no to
// allocating nothing, and every pass's Apply to its step run to a
// fixpoint; each pass must change some state.
func TestFindersAgreeWithApply(t *testing.T) {
	var starts []*ir.Function
	for _, s := range familySlice(t, 2) {
		starts = append(starts, s.O0)
	}
	for _, text := range finderTexts {
		m, err := ir.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, m.Funcs...)
	}
	noes, applied := 0, make(map[string]int)
	for _, f := range starts {
		states := []*ir.Function{f}
		for _, q := range registry {
			if g, changed := q.Apply(states[len(states)-1]); changed {
				states = append(states, g)
			}
		}
		for i, st := range states {
			noes += checkFinders(t, fmt.Sprintf("%s state %d", f.NameStr, i), st, true, applied)
		}
	}
	if noes < 1000 {
		t.Errorf("only %d finders answered no; the corpus no longer exercises them", noes)
	}
	for _, p := range registry {
		if applied[p.name] == 0 {
			t.Errorf("pass %s changed no state; the walk no longer exercises its Apply", p.name)
		}
	}
}

// FuzzFinderAgreesWithApply holds every rule and pass to its finder, as
// TestFindersAgreeWithApply does, on any text that parses and verifies.
// It is seeded with finderTexts, the corpus's O0 functions and what the
// unsound rules make of them.
func FuzzFinderAgreesWithApply(f *testing.F) {
	for _, text := range finderTexts {
		f.Add(text)
	}
	samples, err := dataset.Generate(dataset.Config{Seed: 7, N: datasetTemplates, SkipVerify: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range samples {
		f.Add(s.O0Text)
		for i, r := range rewrite.Unsound() {
			if g := ir.CloneFunc(s.O0); r.Apply(g, rand.New(rand.NewSource(int64(i)))) {
				f.Add(ir.FuncString(g))
			}
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		fn, err := ir.ParseFunc(text)
		if err != nil || ir.VerifyFunc(fn) != nil {
			return
		}
		checkFinders(t, "input", fn, false, make(map[string]int))
	})
}
