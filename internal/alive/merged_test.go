package alive_test

// The executor held to the one it replaced and to the interpreter: on
// every control-flow and loop function of the corpus, against what
// instcombine, each seqopt pass, the whole pass pipeline and each
// applicable unsound rewrite make of it, exec (which merges states at
// joins) and the forking reference in ref_test.go reach the same
// verdict; a counterexample from either distinguishes under interp; and
// where the parameters total at most 16 bits and nothing is called,
// interp over every input decides refinement and both must agree with
// it. External test package: dataset imports alive.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
	"veriopt/internal/rewrite"
	"veriopt/internal/ruptest"
	"veriopt/internal/seqopt"
)

// branchyPair is one query of the differential.
type branchyPair struct {
	name     string
	src, tgt *ir.Function
}

// branchyPairs returns, for every control-flow and loop sample among n
// of seed's corpus, the O0 function against: instcombine's output, each
// seqopt pass's output, the passes applied round-robin to a fixpoint
// (the if-converted form: mem2reg, then if-to-select), and every
// applicable rewrite.Unsound() mutant of the first and the last.
func branchyPairs(tb testing.TB, seed int64, n int) []branchyPair {
	tb.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: seed, N: n, SkipVerify: true})
	if err != nil {
		tb.Fatal(err)
	}
	var pairs []branchyPair
	for _, s := range samples {
		if s.Scenario != dataset.ScenarioControlFlow && s.Scenario != dataset.ScenarioLoop {
			continue
		}
		add := func(kind string, tgt *ir.Function) {
			pairs = append(pairs, branchyPair{fmt.Sprintf("%s/%s", s.O0.NameStr, kind), s.O0, tgt})
		}
		ref := instcombine.Run(s.O0)
		add("instcombine", ref)
		piped := s.O0
		for again := true; again; {
			again = false
			for _, p := range seqopt.Registry() {
				if g, changed := p.Apply(piped); changed {
					piped, again = g, true
				}
			}
		}
		add("pipeline", piped)
		names := seqopt.NewModel(0).Passes // the registry's, in order
		for i, p := range seqopt.Registry() {
			if g, changed := p.Apply(s.O0); changed {
				add(names[i], g)
			}
		}
		for _, base := range []*ir.Function{ref, piped} {
			for i, rule := range rewrite.Unsound() {
				if !rule.Applicable(base) {
					continue
				}
				if g := ir.CloneFunc(base); rule.Apply(g, rand.New(rand.NewSource(seed+int64(i)))) && ir.VerifyFunc(g) == nil {
					add(rule.Name, g)
				}
			}
		}
	}
	return pairs
}

// mergeShapes are joins no template emits: three arms meeting in one
// block, arms whose call counts differ, a cell one arm leaves
// uninitialised, a loop that leaves from two places, a phi diamond
// against its select, and a call after arms whose call counts differ.
var mergeShapes = [][2]string{
	{`define i8 @three(i8 noundef %a, i8 noundef %b) {
entry:
  %c = icmp slt i8 %a, 0
  br i1 %c, label %neg, label %pos
neg:
  %d = icmp ult i8 %b, 9
  br i1 %d, label %x, label %join
x:
  %s = add i8 %a, %b
  br label %join
pos:
  br label %join
join:
  %r = phi i8 [ %s, %x ], [ %b, %neg ], [ %a, %pos ]
  ret i8 %r
}`, `define i8 @three(i8 noundef %a, i8 noundef %b) {
  %c = icmp slt i8 %a, 0
  %d = icmp ult i8 %b, 9
  %s = add i8 %a, %b
  %i = select i1 %d, i8 %s, i8 %b
  %r = select i1 %c, i8 %i, i8 %a
  ret i8 %r
}`},
	{`declare i8 @obs(i8)
define i8 @calls(i8 noundef %a, i8 noundef %b) {
entry:
  %c = icmp eq i8 %a, %b
  br i1 %c, label %once, label %twice
once:
  %u = call i8 @obs(i8 %a)
  br label %join
twice:
  %v = call i8 @obs(i8 %a)
  %w = call i8 @obs(i8 %v)
  br label %join
join:
  %r = phi i8 [ %u, %once ], [ %w, %twice ]
  ret i8 %r
}`, `declare i8 @obs(i8)
define i8 @calls(i8 noundef %a, i8 noundef %b) {
entry:
  %v = call i8 @obs(i8 %a)
  %c = icmp eq i8 %a, %b
  br i1 %c, label %join, label %twice
twice:
  %w = call i8 @obs(i8 %v)
  br label %join
join:
  %r = phi i8 [ %v, %entry ], [ %w, %twice ]
  ret i8 %r
}`},
	{`define i8 @halfinit(i8 noundef %a, i8 noundef %b) {
entry:
  %p = alloca i8
  %c = icmp ugt i8 %a, %b
  br i1 %c, label %set, label %join
set:
  store i8 %a, ptr %p
  br label %join
join:
  %v = load i8, ptr %p
  %f = freeze i8 %v
  %r = select i1 %c, i8 %f, i8 %b
  ret i8 %r
}`, `define i8 @halfinit(i8 noundef %a, i8 noundef %b) {
  %c = icmp ugt i8 %a, %b
  %r = select i1 %c, i8 %a, i8 %b
  ret i8 %r
}`},
	{`define i8 @twoexits(i8 noundef %a, i8 noundef %b) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %latch ]
  %acc = phi i8 [ %a, %entry ], [ %acc1, %latch ]
  %c = icmp ult i8 %i, 3
  br i1 %c, label %body, label %out
body:
  %acc1 = add i8 %acc, %b
  %d = icmp eq i8 %acc1, 7
  br i1 %d, label %out, label %latch
latch:
  %i1 = add i8 %i, 1
  br label %head
out:
  %r = phi i8 [ %acc, %head ], [ %i, %body ]
  ret i8 %r
}`, `define i8 @twoexits(i8 noundef %a, i8 noundef %b) {
  %s1 = add i8 %a, %b
  %d1 = icmp eq i8 %s1, 7
  %s2 = add i8 %s1, %b
  %d2 = icmp eq i8 %s2, 7
  %s3 = add i8 %s2, %b
  %d3 = icmp eq i8 %s3, 7
  %t3 = select i1 %d3, i8 2, i8 %s3
  %t2 = select i1 %d2, i8 1, i8 %t3
  %t1 = select i1 %d1, i8 0, i8 %t2
  ret i8 %t1
}`},
	{`define i8 @phidiamond(i8 noundef %a, i8 noundef %b) {
entry:
  %c = icmp ne i8 %a, %b
  br i1 %c, label %t, label %f
t:
  %x = sub i8 %a, %b
  br label %join
f:
  %y = udiv i8 %a, %b
  br label %join
join:
  %r = phi i8 [ %x, %t ], [ %y, %f ]
  ret i8 %r
}`, `define i8 @phidiamond(i8 noundef %a, i8 noundef %b) {
  %c = icmp ne i8 %a, %b
  %x = sub i8 %a, %b
  %y = udiv i8 %a, %b
  %r = select i1 %c, i8 %x, i8 %y
  ret i8 %r
}`},
	{`declare i8 @obs(i8)
define i8 @callafter(i8 noundef %a, i8 noundef %b) {
entry:
  %c = icmp ult i8 %a, %b
  br i1 %c, label %once, label %join
once:
  %u = call i8 @obs(i8 %a)
  br label %join
join:
  %p = phi i8 [ %u, %once ], [ %a, %entry ]
  %v = call i8 @obs(i8 %b)
  %r = add i8 %p, %v
  ret i8 %r
}`, `declare i8 @obs(i8)
define i8 @callafter(i8 noundef %a, i8 noundef %b) {
entry:
  %c = icmp ult i8 %a, %b
  br i1 %c, label %both, label %one
both:
  %u = call i8 @obs(i8 %a)
  %v = call i8 @obs(i8 %b)
  %s = add i8 %u, %v
  ret i8 %s
one:
  %w = call i8 @obs(i8 %b)
  %t = add i8 %a, %w
  ret i8 %t
}`},
}

// positionShapes are where finding a value by its layout position has
// to look past the obvious: a header phi fed through the back edge by a
// value defined later in its own block, and by one in a latch laid out
// after the loop's exit; an alloca outside the entry block; and (wide) a
// function with more instructions, operands and forked state than the
// executor's arrays hold.
var positionShapes = [][2]string{
	{`define i8 @selfloop(i8 noundef %a, i8 noundef %b) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i8 [ %a, %entry ], [ %acc1, %loop ]
  %acc1 = xor i8 %acc, %b
  %i1 = add i8 %i, 1
  %c = icmp ult i8 %i1, 3
  br i1 %c, label %loop, label %out
out:
  ret i8 %acc1
}`, `define i8 @selfloop(i8 noundef %a, i8 noundef %b) {
  %r = xor i8 %a, %b
  ret i8 %r
}`},
	{`define i8 @latchlast(i8 noundef %a, i8 noundef %b) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %latch ]
  %acc = phi i8 [ %a, %entry ], [ %acc1, %latch ]
  %c = icmp ult i8 %i, 2
  br i1 %c, label %latch, label %out
out:
  ret i8 %acc
latch:
  %acc1 = add i8 %acc, %b
  %i1 = add i8 %i, 1
  br label %head
}`, `define i8 @latchlast(i8 noundef %a, i8 noundef %b) {
  %b2 = shl i8 %b, 1
  %r = add i8 %a, %b2
  ret i8 %r
}`},
	{`define i8 @latealloca(i8 noundef %a, i8 noundef %b) {
entry:
  %c = icmp ult i8 %a, %b
  br i1 %c, label %t, label %join
t:
  %p = alloca i8
  store i8 %a, ptr %p
  %v = load i8, ptr %p
  br label %join
join:
  %r = phi i8 [ %v, %t ], [ %b, %entry ]
  ret i8 %r
}`, `define i8 @latealloca(i8 noundef %a, i8 noundef %b) {
  %c = icmp ult i8 %a, %b
  %r = select i1 %c, i8 %a, i8 %b
  ret i8 %r
}`},
	wideShape(),
}

// wideShape is a diamond whose arms are chains of 40 instructions each,
// joined by a phi, against the same chains joined by a select: 86
// instructions and 170 operands, past the executor's 64 slots and its
// 128-entry table, and a fork that does not fit beside the entry state.
func wideShape() [2]string {
	var t, f, both strings.Builder
	ops := [...]string{"add", "xor", "mul", "sub"}
	for i := range 40 {
		tPrev, fPrev := "%a", "%b"
		if i > 0 {
			tPrev, fPrev = fmt.Sprintf("%%t%d", i-1), fmt.Sprintf("%%f%d", i-1)
		}
		fmt.Fprintf(&t, "  %%t%d = %s i8 %s, %d\n", i, ops[i%4], tPrev, i+1)
		fmt.Fprintf(&f, "  %%f%d = %s i8 %s, %%a\n", i, ops[(i+1)%4], fPrev)
	}
	both.WriteString(t.String())
	both.WriteString(f.String())
	return [2]string{
		"define i8 @wide(i8 noundef %a, i8 noundef %b) {\nentry:\n  %c = icmp ult i8 %a, %b\n  br i1 %c, label %t, label %f\nt:\n" + t.String() +
			"  br label %join\nf:\n" + f.String() + "  br label %join\njoin:\n  %r = phi i8 [ %t39, %t ], [ %f39, %f ]\n  ret i8 %r\n}",
		"define i8 @wide(i8 noundef %a, i8 noundef %b) {\n  %c = icmp ult i8 %a, %b\n" + both.String() +
			"  %r = select i1 %c, i8 %t39, i8 %f39\n  ret i8 %r\n}",
	}
}

// shapePairs parses mergeShapes and positionShapes, each both ways
// round.
func shapePairs(tb testing.TB) []branchyPair {
	tb.Helper()
	var pairs []branchyPair
	for _, sh := range append(mergeShapes[:len(mergeShapes):len(mergeShapes)], positionShapes...) {
		var fns [2]*ir.Function
		for i, text := range sh {
			fns[i] = mustParse(tb, text)
		}
		pairs = append(pairs, branchyPair{fns[0].NameStr, fns[0], fns[1]}, branchyPair{fns[0].NameStr + "/back", fns[1], fns[0]})
	}
	return pairs
}

// mutateBranchy returns a copy of f with one to three of its constants,
// icmp predicates and nsw/nuw/exact flags changed, as rng says.
func mutateBranchy(f *ir.Function, rng *rand.Rand) *ir.Function {
	g := ir.CloneFunc(f)
	var sites []func()
	g.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		for i, a := range in.Args {
			if c, ok := a.(*ir.Const); ok && in.Op != ir.OpSwitch {
				sites = append(sites, func() {
					delta := []int64{1, -1, 2, int64(rng.Intn(64)) - 32, -c.Signed(), int64(c.Ty.SignBit()) - c.Signed()}
					in.Args[i] = ir.NewConst(c.Ty, c.Signed()+delta[rng.Intn(len(delta))])
				})
			}
		}
		switch {
		case in.Op == ir.OpICmp:
			sites = append(sites, func() { in.Pred = ir.Pred(rng.Intn(int(ir.PredSLE) + 1)) })
		case in.Op == ir.OpAdd, in.Op == ir.OpSub, in.Op == ir.OpMul, in.Op == ir.OpShl:
			sites = append(sites, func() { in.Flags.NSW = !in.Flags.NSW }, func() { in.Flags.NUW = !in.Flags.NUW })
		case in.Op == ir.OpUDiv, in.Op == ir.OpSDiv, in.Op == ir.OpLShr, in.Op == ir.OpAShr:
			sites = append(sites, func() { in.Flags.Exact = !in.Flags.Exact })
		}
	})
	for k := 1 + rng.Intn(3); k > 0 && len(sites) > 0; k-- {
		sites[rng.Intn(len(sites))]()
	}
	return g
}

// mergeTally is what a differential run saw, for the floors.
// callWitness counts the pairs held to verdict agreement only (see
// refinetest.UsesCallResult).
type mergeTally struct {
	pairs, equivalent, semantic, forkingOutOfPaths, budget, exhaustive, exhaustiveRefuted, callWitness int
}

// checkMergedVsForking verifies one pair with exec and with the forking
// reference, each with the session and with a fresh solver per query,
// under the RUP checker, and holds the four answers to each other, to
// the interpreter on every counterexample and, where it applies, to the
// exhaustive decision. A verdict may differ in one way only: the
// reference ran out of paths or steps where exec did not. A
// counterexample that does not distinguish under the interpreter is a
// failure unless a call result is read (refinetest.UsesCallResult):
// such a pair is held to the verdict agreement and counted in
// tl.callWitness.
func checkMergedVsForking(t *testing.T, p branchyPair, tl *mergeTally) {
	t.Helper()
	audit := &ruptest.Audit{}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nsource:\n%s\ntarget:\n%s", p.name, fmt.Sprintf(format, args...), ir.FuncString(p.src), ir.FuncString(p.tgt))
	}
	opts := alive.DefaultOptions()
	opts.SolverBudget = 20000
	var definite []alive.Result
	callWitness := false
	for _, fresh := range []bool{false, true} {
		merged, _, _ := alive.VerifyRuleHits(p.src, p.tgt, opts, audit.New)
		forking := alive.VerifyForking(context.Background(), p.src, p.tgt, opts, audit.New)
		if fresh {
			merged = alive.VerifyFresh(context.Background(), p.src, p.tgt, opts, false, audit.New)
			forking = alive.VerifyFresh(context.Background(), p.src, p.tgt, opts, true, audit.New)
		}
		mr, fr := merged.Reason(), forking.Reason()
		switch {
		case mr == alive.ConflictBudget || fr == alive.ConflictBudget:
			tl.budget++
		case (fr == alive.PathLimit || fr == alive.StepLimit) && mr == alive.NoReason:
			tl.forkingOutOfPaths++
		case merged.Verdict != forking.Verdict || mr != fr:
			fail("fresh=%v: merged %v (%s), forking %v (%s)", fresh, merged.Verdict, merged.Diag, forking.Verdict, forking.Diag)
		}
		for name, res := range map[string]alive.Result{"merged": merged, "forking": forking} {
			if res.Verdict == alive.SemanticError && !refinetest.Witness(t, p.src, p.tgt, res.Counterexample) {
				if !refinetest.UsesCallResult(p.src) && !refinetest.UsesCallResult(p.tgt) {
					fail("fresh=%v: %s counterexample %v does not distinguish (%s)", fresh, name, res.Counterexample, res.Diag)
				}
				callWitness = true
			}
			if res.Verdict != alive.Inconclusive {
				definite = append(definite, res)
			}
		}
		if !fresh {
			tl.pairs++
			switch merged.Verdict {
			case alive.Equivalent:
				tl.equivalent++
			case alive.SemanticError:
				tl.semantic++
			}
		}
	}
	audit.Verify(t)
	if callWitness {
		tl.callWitness++
	}
	if refines, err := refinetest.Exhaustive(p.src, p.tgt); err == nil {
		tl.exhaustive++
		want := alive.SemanticError
		if refines {
			want = alive.Equivalent
		} else {
			tl.exhaustiveRefuted++
		}
		for _, res := range definite {
			if res.Verdict != want {
				fail("interp over every input says %v, a verifier says %v (%s)", want, res.Verdict, res.Diag)
			}
		}
	}
}

// TestMergedVsForking is the differential over two corpus seeds and the
// hand-written joins; the floors keep it from passing vacuously.
func TestMergedVsForking(t *testing.T) {
	t.Parallel()
	var tl mergeTally
	pairs := shapePairs(t)
	n := 72
	if testing.Short() {
		n = 36
	}
	for _, seed := range []int64{12, 31} {
		pairs = append(pairs, branchyPairs(t, seed, n)...)
	}
	// The pair the fuzzer found: these two seeds put nuw on the callafter
	// target's add of two call results.
	for _, p := range shapePairs(t) {
		if p.name == "callafter" {
			for _, seed := range []int64{96, -16} {
				pairs = append(pairs, branchyPair{"callafter/nuw", p.src, mutateBranchy(p.tgt, rand.New(rand.NewSource(seed)))})
			}
		}
	}
	for _, p := range pairs {
		checkMergedVsForking(t, p, &tl)
	}
	t.Logf("%+v", tl)
	if tl.equivalent < 100 || tl.semantic < 40 || tl.exhaustive < 10 || tl.exhaustiveRefuted < 3 || tl.callWitness != 2 {
		t.Errorf("floors (100 equivalent, 40 semantic errors, 10 pairs decided exhaustively, 3 of them refuted, the 2 callafter/nuw pairs and no other held to the verdict only) not met: %+v", tl)
	}
}

// FuzzMergedVsForking: whatever pair parses and passes ir.VerifyFunc,
// with the target's constants, predicates and flags changed as the seed
// says (seed 0 leaves it alone), exec and the forking reference agree
// on, and the interpreter agrees with both. Seeds: one corpus slice's
// pairs and the hand-written joins; testdata/fuzz holds the callafter
// pair under the two seeds that put nuw on an add of two call results.
func FuzzMergedVsForking(f *testing.F) {
	for i, p := range append(shapePairs(f), branchyPairs(f, 7, 36)...) {
		f.Add(ir.FuncString(p.src), ir.FuncString(p.tgt), int64(i%3))
	}
	f.Fuzz(func(t *testing.T, srcText, tgtText string, seed int64) {
		src, err := ir.ParseFunc(srcText)
		if err != nil || ir.VerifyFunc(src) != nil {
			return
		}
		tgt, err := ir.ParseFunc(tgtText)
		if err != nil || ir.VerifyFunc(tgt) != nil {
			return
		}
		if seed != 0 {
			if tgt = mutateBranchy(tgt, rand.New(rand.NewSource(seed))); ir.VerifyFunc(tgt) != nil {
				return
			}
		}
		checkMergedVsForking(t, branchyPair{src.NameStr, src, tgt}, new(mergeTally))
	})
}

// TestOperandOfAnotherFunction: an operand that is another function's
// parameter or instruction, or a load through another function's
// alloca, is outside the executed region. ir.VerifyFunc rejects such a
// function (except for the parameter), so it reaches the verifier only
// from ir.Builder; the verdict and diagnostic are the forking
// reference's, as they were while exec kept its slots in a map.
func TestOperandOfAnotherFunction(t *testing.T) {
	other := ir.NewBuilder("other", ir.I8, ir.I8)
	other.NewBlock("entry")
	sum := other.Bin(ir.OpAdd, other.Param(0), other.Param(0))
	cell := other.Alloca(ir.I8)
	other.Ret(sum)
	for _, tc := range []struct {
		name string
		use  func(b *ir.Builder) ir.Value
		diag string
	}{
		{"parameter", func(*ir.Builder) ir.Value { return other.Param(0) }, "ERROR: unsupported: value defined outside executed region"},
		{"instruction", func(*ir.Builder) ir.Value { return sum }, "ERROR: unsupported: value defined outside executed region"},
		{"alloca", func(b *ir.Builder) ir.Value { return b.Load(ir.I8, cell) }, "ERROR: unsupported: memory access to out-of-scope alloca"},
	} {
		b := ir.NewBuilder("f", ir.I8, ir.I8)
		b.NewBlock("entry")
		b.Ret(b.Bin(ir.OpXor, b.Param(0), tc.use(b)))
		f := b.Fn
		same := ir.NewBuilder("f", ir.I8, ir.I8)
		same.NewBlock("entry")
		same.Ret(same.Param(0))
		for _, pair := range [][2]*ir.Function{{f, same.Fn}, {same.Fn, f}} {
			got := alive.VerifyFuncs(pair[0], pair[1], alive.DefaultOptions())
			ref := alive.VerifyForking(context.Background(), pair[0], pair[1], alive.DefaultOptions(), nil)
			if got.Verdict != alive.Inconclusive || got.Diag != tc.diag || !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: %+v; the forking reference %+v; want Inconclusive %q", tc.name, got, ref, tc.diag)
			}
		}
	}
}

// TestVerifySharesFunctions: one pair verified from several goroutines
// at once (run it under -race) reaches one result, and the verifier
// writes nothing into either function. The pairs fork, merge, read
// memory and call the solver: a corpus function of several blocks
// against its instcombine output, and a refuted mutant of a diamond.
func TestVerifySharesFunctions(t *testing.T) {
	var pairs []branchyPair
	for _, p := range branchyPairs(t, 12, 36) {
		if strings.HasSuffix(p.name, "/instcombine") && len(p.src.Blocks) > 2 {
			pairs = append(pairs, p)
			break
		}
	}
	for _, p := range shapePairs(t) {
		if p.name == "phidiamond" {
			pairs = append(pairs, branchyPair{"phidiamond/mutant", p.src, mutateBranchy(p.tgt, rand.New(rand.NewSource(3)))})
		}
	}
	if len(pairs) != 2 {
		t.Fatalf("%d pairs, want a corpus function and the mutant", len(pairs))
	}
	for _, p := range pairs {
		before := [2]string{ir.FuncString(p.src), ir.FuncString(p.tgt)}
		want := alive.VerifyFuncs(p.src, p.tgt, alive.DefaultOptions())
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 5 {
					if got := alive.VerifyFuncs(p.src, p.tgt, alive.DefaultOptions()); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %+v, want %+v", p.name, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if after := [2]string{ir.FuncString(p.src), ir.FuncString(p.tgt)}; after != before {
			t.Errorf("%s: verifying changed the functions:\n%s\n%s\nwere\n%s\n%s", p.name, after[0], after[1], before[0], before[1])
		}
		t.Logf("%s: %v", p.name, want.Verdict)
	}
}
