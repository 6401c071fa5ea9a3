package rewrite

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

func parse(t *testing.T, src string) *ir.Function {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m.Funcs[0]
}

const o0Style = `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = alloca i32
  %4 = alloca i32
  store i32 %0, ptr %3
  store i32 %1, ptr %4
  %5 = load i32, ptr %3
  %6 = load i32, ptr %4
  %7 = mul i32 %5, 4
  %8 = add i32 %7, 0
  %9 = sub i32 %8, %6
  ret i32 %9
}
`

const diamondSrc = `define i32 @f(i32 noundef %0) {
entry:
  %1 = icmp slt i32 %0, 10
  br i1 %1, label %a, label %b

a:
  br label %end

b:
  %2 = add i32 %0, -12
  %3 = lshr i32 %2, 2
  %4 = add i32 %3, 3
  br label %end

end:
  %5 = phi i32 [ 0, %a ], [ %4, %b ]
  ret i32 %5
}
`

func TestSoundRulesAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range append(Sound(), Extra()...) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			for _, src := range []string{o0Style, diamondSrc} {
				f := parse(t, src)
				if !r.Applicable(f) {
					continue
				}
				g := ir.CloneFunc(f)
				if !r.Apply(g, rng) {
					t.Fatalf("Applicable true but Apply did nothing")
				}
				if err := ir.VerifyFunc(g); err != nil {
					t.Fatalf("rule broke structural invariants: %v\n%s", err, ir.FuncString(g))
				}
				res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
				if res.Verdict == alive.SemanticError {
					t.Fatalf("sound rule is unsound!\nbefore:\n%s\nafter:\n%s\n%s",
						ir.FuncString(f), ir.FuncString(g), res.Diag)
				}
			}
		})
	}
}

// unsoundWitnesses holds, for each unsound rule, an input where the
// verifier catches it.
var unsoundWitnesses = map[string]string{
	"unsound-sdiv-as-lshr": `define i32 @f(i32 noundef %0) {
  %2 = sdiv i32 %0, 4
  ret i32 %2
}
`,
	"unsound-srem-as-and": `define i32 @f(i32 noundef %0) {
  %2 = srem i32 %0, 8
  ret i32 %2
}
`,
	"unsound-ashr-as-lshr": `define i32 @f(i32 noundef %0) {
  %2 = ashr i32 %0, 3
  ret i32 %2
}
`,
	"unsound-add-flags": `define i8 @f(i8 noundef %0) {
  %2 = add i8 %0, 1
  ret i8 %2
}
`,
	"unsound-overflow-cmp": `define i1 @f(i32 noundef %0) {
  %2 = add i32 %0, 5
  %3 = icmp slt i32 %0, %2
  ret i1 %3
}
`,
	"unsound-sub-commute": `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = sub i32 %0, %1
  ret i32 %3
}
`,
	"unsound-ext-swap": `define i64 @f(i8 noundef %0) {
  %2 = zext i8 %0 to i64
  ret i64 %2
}
`,
	"unsound-drop-store": `define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = load i32, ptr %2
  ret i32 %3
}
`,
	"unsound-drop-call": `declare i32 @g(i32)

define i32 @f(i32 noundef %0) {
  %2 = call i32 @g(i32 %0)
  ret i32 %2
}
`,
	"unsound-off-by-one": `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 100
  ret i32 %2
}
`,
	"unsound-select-swap": `define i32 @f(i1 noundef %0, i32 noundef %1) {
  %3 = select i1 %0, i32 %1, i32 7
  ret i32 %3
}
`,
}

func TestUnsoundRulesAreRejectedSomewhere(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range Unsound() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			src, ok := unsoundWitnesses[r.Name]
			if !ok {
				t.Fatalf("no witness input for %s", r.Name)
			}
			f := parse(t, src)
			if !r.Applicable(f) {
				t.Fatalf("rule not applicable to its witness")
			}
			g := ir.CloneFunc(f)
			if !r.Apply(g, rng) {
				t.Fatalf("Apply did nothing on witness")
			}
			res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
			if res.Verdict != alive.SemanticError {
				t.Fatalf("verifier failed to reject unsound rewrite (verdict %v)\nbefore:\n%s\nafter:\n%s",
					res.Verdict, ir.FuncString(f), ir.FuncString(g))
			}
		})
	}
}

func TestUnsoundRuleSometimesLucky(t *testing.T) {
	// ashr->lshr is accidentally sound when the operand is known
	// non-negative — the verifier must accept that case, mirroring an
	// LLM hallucination that happens to be right.
	src := `define i32 @f(i32 noundef %0) {
  %2 = lshr i32 %0, 1
  %3 = ashr i32 %2, 3
  ret i32 %3
}
`
	f := parse(t, src)
	var rule *Rule
	for _, r := range Unsound() {
		if r.Name == "unsound-ashr-as-lshr" {
			rule = r
		}
	}
	g := ir.CloneFunc(f)
	if !rule.Apply(g, nil) {
		t.Fatal("rule did not apply")
	}
	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if res.Verdict != alive.Equivalent {
		t.Fatalf("lucky hallucination should verify: %v %s", res.Verdict, res.Diag)
	}
}

func TestCorruptionsBreakParsing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := parse(t, o0Style)
	text := ir.FuncString(f)
	for _, r := range Corruptions() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			bad := r.ApplyText(text, rng)
			if bad == text {
				t.Fatal("corruption did not change the text")
			}
			g, err := ir.ParseFunc(bad)
			if err == nil {
				if verr := ir.VerifyFunc(g); verr == nil {
					t.Fatalf("corrupted text still parses and verifies:\n%s", bad)
				}
			}
		})
	}
}

func TestDiamondToSelect(t *testing.T) {
	f := parse(t, diamondSrc)
	g := ir.CloneFunc(f)
	var rule *Rule
	for _, r := range Extra() {
		if r.Name == "extra-diamond-to-select" {
			rule = r
		}
	}
	if !rule.Applicable(g) {
		t.Fatal("diamond not detected")
	}
	if !rule.Apply(g, nil) {
		t.Fatal("apply failed")
	}
	if err := ir.VerifyFunc(g); err != nil {
		t.Fatalf("broken output: %v\n%s", err, ir.FuncString(g))
	}
	if len(g.Blocks) != 1 {
		t.Errorf("expected a single block after folding, got %d:\n%s", len(g.Blocks), ir.FuncString(g))
	}
	if !strings.Contains(ir.FuncString(g), "select") {
		t.Errorf("no select emitted:\n%s", ir.FuncString(g))
	}
	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if res.Verdict != alive.Equivalent {
		t.Fatalf("diamond fold unsound: %s", res.Diag)
	}
}

const constBranchSrc = `define i32 @f(i32 noundef %0) {
entry:
  br i1 true, label %a, label %b

a:
  ret i32 1

b:
  ret i32 2
}
`

func TestFoldConstBranch(t *testing.T) {
	f := parse(t, constBranchSrc)
	g := ir.CloneFunc(f)
	if !FoldConstBranch.Apply(g, nil) {
		t.Fatal("const branch not folded")
	}
	if err := ir.VerifyFunc(g); err != nil {
		t.Fatalf("%v\n%s", err, ir.FuncString(g))
	}
	if len(g.Blocks) != 2 {
		t.Errorf("dead block not pruned: %d blocks", len(g.Blocks))
	}
	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if res.Verdict != alive.Equivalent {
		t.Fatalf("fold unsound: %s", res.Diag)
	}
}

func TestPromoteAlloca(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
entry:
  %1 = alloca i32
  store i32 %0, ptr %1
  %2 = icmp sgt i32 %0, 0
  br i1 %2, label %a, label %b

a:
  %3 = load i32, ptr %1
  %4 = add i32 %3, 1
  ret i32 %4

b:
  %5 = load i32, ptr %1
  ret i32 %5
}
`
	f := parse(t, src)
	g := ir.CloneFunc(f)
	if !promoteAllocaRule.Apply(g, nil) {
		t.Fatal("alloca not promoted")
	}
	if err := ir.VerifyFunc(g); err != nil {
		t.Fatalf("%v\n%s", err, ir.FuncString(g))
	}
	if strings.Contains(ir.FuncString(g), "alloca") {
		t.Errorf("alloca still present:\n%s", ir.FuncString(g))
	}
	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if res.Verdict != alive.Equivalent {
		t.Fatalf("promotion unsound: %s", res.Diag)
	}
}

func TestAllRulesStableOrder(t *testing.T) {
	a := All()
	b := All()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatal("All() inconsistent")
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("rule order unstable at %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
	seen := map[string]bool{}
	for _, r := range a {
		if seen[r.Name] {
			t.Errorf("duplicate rule name %s", r.Name)
		}
		seen[r.Name] = true
		if r.Kind == KindCorrupt && r.damage == nil {
			t.Errorf("corrupt rule %s lacks ApplyText", r.Name)
		}
		if r.Kind != KindCorrupt && r.step == nil {
			t.Errorf("rule %s lacks a step", r.Name)
		}
	}
}

const constSwitchSrc = `define i32 @f(i32 noundef %0) {
entry:
  switch i32 2, label %def [ i32 1, label %a i32 2, label %b ]

a:
  ret i32 10

b:
  ret i32 20

def:
  ret i32 -1
}
`

func TestFoldConstSwitch(t *testing.T) {
	f := parse(t, constSwitchSrc)
	g := ir.CloneFunc(f)
	if !FoldConstBranch.Apply(g, nil) {
		t.Fatal("constant switch not folded")
	}
	if err := ir.VerifyFunc(g); err != nil {
		t.Fatalf("%v\n%s", err, ir.FuncString(g))
	}
	if len(g.Blocks) != 2 {
		t.Errorf("dead switch arms not pruned: %d blocks\n%s", len(g.Blocks), ir.FuncString(g))
	}
	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if res.Verdict != alive.Equivalent {
		t.Fatalf("fold unsound: %s", res.Diag)
	}
}

// TestReadOnlyAnalysesShareOneFunction: one source function is verified,
// keyed and probed by many goroutines at once (a GRPO group against one
// prompt, a search's passes against one state), so ir.NewCFG and what
// stands on it may write nothing into the function they read. The race
// detector is the judge; the answers must also be the sequential ones.
func TestReadOnlyAnalysesShareOneFunction(t *testing.T) {
	f := parse(t, diamondSrc)
	key := ir.CanonicalKey(f)
	mp, mok := findMergePair(f)
	d, dok := findDiamond(f)
	if !dok {
		t.Fatal("diamond not detected")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := ir.VerifyFunc(f); err != nil {
					t.Errorf("VerifyFunc: %v", err)
				}
				if got := ir.CanonicalKey(f); got != key {
					t.Errorf("CanonicalKey = %q, want %q", got, key)
				}
				if p, ok := findMergePair(f); p != mp || ok != mok {
					t.Errorf("findMergePair = %v, %v", p, ok)
				}
				if got, ok := findDiamond(f); !ok || got != d {
					t.Errorf("findDiamond = %v, want %v", got, d)
				}
			}
		}()
	}
	wg.Wait()
}
