package veriopt

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/rewrite"
	"veriopt/internal/seqopt"
	"veriopt/internal/vcache"
)

// The IR front half — parse, cache key, pass probing — is what every
// cache hit and every search state pays before any solver work. The
// ceilings below hold its allocation counts in `go test ./...`, about
// 5 % above what the slab parser, the dense CFG analysis, the one-pass
// key and in-place step probing achieve on midFn (10, 1, 5 and 32, under
// -race too, and one more where 5 % rounds to nothing; the parser read
// 26 while it went through a Module, a slice of lines and maps of names
// and blocks, and 96 with an object per instruction and operand list;
// VerifyFunc 6 with its maps of names and NewCFG's map of blocks, 37
// with a map per CFG question; with the rune-by-rune lexer, the
// clone-and-renumber key and per-position clones parse, key and pass
// were 566, 413 and 39 105, and the combine pass was 1362 while
// DeadCodeElim built a use list per definition and combiner.fresh ran
// Sscanf over every name, and 99 while DeadCodeElim filled a used-set
// each round and the clone kept a value map and a block map), so a
// regression fails tier-1 and not only the benchmark. A candidate the
// SyntaxError gate turns away, midFn with a mnemonic misspelt in its
// third block, reads 14, 15 under -race (29 and 30 with the Module, the
// lines and the maps). `make bench-ir` prints the numbers themselves. A
// search state is also one ir.CloneFunc per expanded state: 9 on midFn with
// everything taken from a slab per kind, as the parser does, and every
// operand found by position (12 with the two maps, 74 with an object per
// instruction, parameter and block and a slice per list, 76 with the
// value map keyed by the Value interface and grown from empty, 111 when
// the slices grew by append). A search copies through one ir.Copier,
// which makes a copy in the memory of the last one once that is
// released (a pass that changed nothing, a state already seen): 0 on
// midFn, into a released copy of midFn. The copies it keeps share its
// chunks, which double: eight copies of midFn that one Copier keeps
// are at most nine kinds times four chunks, 36 (72 while each copy took
// a slab per kind). A server parses through one
// ir.Copier per request text in the same way (Copier.Parse, of which
// ParseFunc is a zero Copier's): 0 on midFn, into a released parse of
// midFn. DeadCodeElim allocates nothing: its row prunes copies made
// outside the count, midFn with the join's phi handed to a parameter,
// which leaves a dead chain through both arms (13 with the used-set and
// the dead list).
// One interp.Run, which the benchmark's labeller and every differential
// test call once per input, is 1, its Outcome: the function is lowered
// into slabs on Run's stack (4 with them on the heap, 7 with a
// map[*ir.Instr]Val made per run, 9 with one map[ir.Value]Val for
// everything and a fresh phi map per block visit). A run of a corpus
// loop mutant to the 10 000-step limit is 1 too (8 with the map), and
// must not grow with the steps.
// Key.Fingerprint runs on every query, hot hits included, and twice more
// under a store: 0 on a key that fits its 2 KB stack buffer (2, and four
// times the CPU, through json.Marshal). Every search state and corpus
// input is canonically numbered, and its key prints under its own names:
// 1 on a renumbered midFn, a string of the text's length printed from a
// buffer on the stack, under -race too (2, and 3 under -race, while the
// printer copied a heap buffer into the string and fmt moved it to the
// heap; 7 while it mapped every value to its number). A named midFn
// reads 5.
//
// The last seven rows are what a search pays outside the SAT search,
// and their ceilings are about 5 % above what they read under -race, or
// one above where 5 % rounds to nothing, and 0 for the hot-tier hit,
// which must make nothing: one verification the normal
// form decides without a solver (1, under -race too, the verification
// struct its terms live in; BenchmarkVerifyTail's negation-i64; 5 while
// bv.NewBuilder allocated the builder, its map and its first term chunk,
// 26 while the executor found slots through a map per function and each
// verification allocated its executors, summaries, inputs and query list
// one by one), one verification on midFn (214, under -race too; 277
// with the builder's map and each per-variable array of the solver
// grown by its own appends, 309 with the executor's map and those
// allocations, 317 while a path state kept its values and cells in two
// maps, 553 before that when bv.Builder allocated a term and a formatted
// key before looking it up, and the concrete pre-pass a map per
// environment), a miscompile the session's pre-pass refutes, the shape
// serve-cold asks most (26, 33 under -race; 42 and 49 while the session
// built its blaster and solver before the pre-pass had answered, 59 and
// 71 with the builder's map and the seed list appended one environment
// at a time), a small
// pair a solver decides Unsat (35, under -race too; 93 and 94) and one
// whole Beam on a stack nothing has warmed (618, under -race too, with
// its winner copied out of the search's chunks; 619 while each state
// had slabs of its own, and 628 before that; 633
// and 632 while each expansion's children and each depth's candidates
// grew by append from nil; 642 while each copy's key and each query's two keys were made as strings
// and a state kept its own sequence; 659,
// 663 before that, while every copy that was no new state was made in
// fresh memory and dropped; 800
// and 802 with the builder's map, 888 with the executor's map, 1078
// while DCE, the clone and the key allocated what they did not keep,
// 1121 with a map in each path state, 1192 with those maps and the
// key's, 2579 with a clone an object per instruction, 10 658 with that
// interner and a clone per pass application instead of one working copy
// per expanded state); midFn holds no alloca, and a Beam over
// diamondO0, whose winner mem2reg makes with a phi, is 77, under -race
// too (69 before the winner was copied out of the search's chunks, and
// 76 before that; 79 while those lists grew by append, 92 while mem2reg copied the search's copy again, a phi took two
// allocations more and every key was a string); a Beam over the
// seed-12 corpus's @sign_splat_9, which keeps eight states, is 311,
// under -race too (355 while each state had slabs of its own); and one
// query a stack with no backing answers from its hot tier, on
// canonically numbered functions as a search asks, is 0: both keys are
// printed into arrays on Verify's stack and fingerprinted there (2
// while each query made both key strings).

const midFn = `define i32 @mid(i32 noundef %a, i32 noundef %b, i32 noundef %c) {
entry:
  %t0 = add nsw i32 %a, 0
  %t1 = mul i32 %t0, 8
  %t2 = shl i32 %b, 2
  %t3 = shl i32 %t2, 3
  %t4 = xor i32 %t1, %t1
  %t5 = or i32 %t3, %t4
  %t6 = sub i32 %t5, 0
  %t7 = and i32 %t6, -1
  %cmp = icmp sgt i32 %t7, %c
  br i1 %cmp, label %then, label %else

then:
  %u0 = add i32 %t7, 5
  %u1 = add i32 %u0, 7
  %u2 = udiv i32 %u1, 4
  %u3 = mul i32 %u2, 1
  br label %join

else:
  %v0 = sub i32 %c, %c
  %v1 = add i32 %v0, %t7
  %v2 = lshr i32 %v1, 1
  %v3 = lshr i32 %v2, 2
  %v4 = select i1 true, i32 %v3, i32 %a
  br label %join

join:
  %p = phi i32 [ %u3, %then ], [ %v4, %else ]
  %w0 = xor i32 %p, 0
  %w1 = trunc i32 %w0 to i8
  %w2 = zext i8 %w1 to i32
  ret i32 %w2
}
`

// garbledMid is midFn as a model might emit it with one mnemonic
// misspelt: a syntax error found in its third block, after the parser
// has counted the whole body and built two blocks' instructions.
var garbledMid = strings.Replace(midFn, "udiv i32", "udvi i32", 1)

// parseGarbled is one candidate the SyntaxError gate turns away.
func parseGarbled(tb testing.TB) {
	if _, err := ir.ParseFunc(garbledMid); err == nil || !strings.Contains(err.Error(), `unknown instruction "udvi"`) {
		tb.Fatalf("garbled midFn: %v, want an unknown instruction", err)
	}
}

func midFunc(tb testing.TB) *ir.Function {
	tb.Helper()
	f, err := ir.ParseFunc(midFn)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func combinePass(tb testing.TB) *seqopt.Pass {
	tb.Helper()
	// A model's Passes name the registry's passes in order.
	if name := seqopt.NewModel(0).Passes[0]; name != "combine" {
		tb.Fatalf("registry[0] is %s, want combine", name)
	}
	return seqopt.Registry()[0]
}

// verifyMid is one verification on a search's path: midFn against its
// instcombine output.
func verifyMid(tb testing.TB, f, opt *ir.Function) alive.Result {
	r := alive.VerifyFuncs(f, opt, alive.DefaultOptions())
	if r.Verdict != alive.Equivalent {
		tb.Fatalf("midFn against its instcombine output: %s", r.Verdict)
	}
	return r
}

// negationI64 is BenchmarkVerifyTail's negation-i64: against its
// instcombine output the normal form folds every refinement query to
// false, so the verification builds no solver.
const negationI64 = "define i64 @f(i64 noundef %0, i64 noundef %1) {\n  %3 = sub i64 0, %1\n  %4 = add i64 %0, %3\n  ret i64 %4\n}\n"

// foldedPair is negationI64 and its instcombine output.
func foldedPair(tb testing.TB) (*ir.Function, *ir.Function) {
	tb.Helper()
	f, err := ir.ParseFunc(negationI64)
	if err != nil {
		tb.Fatal(err)
	}
	return f, instcombine.Run(f)
}

// verifyFolded is one verification that no solver decides.
func verifyFolded(tb testing.TB, f, opt *ir.Function) alive.Result {
	r := alive.VerifyFuncs(f, opt, alive.DefaultOptions())
	if r.Verdict != alive.Equivalent || r.SolverConflicts != 0 {
		tb.Fatalf("negation-i64 against its instcombine output: %s, %d conflicts", r.Verdict, r.SolverConflicts)
	}
	return r
}

// The seed-12 corpus's first function and the miscompile its
// unsound-off-by-one rule makes of the reference output: the shape of
// most of serve-cold's semantic errors. The all-zero seed environment
// already tells them apart, so the session's pre-pass refutes it before
// anything is blasted.
const (
	prepassSrc = "define i16 @arith_chain_0(i16 noundef %0) #0 {\n  %1 = alloca i16\n  store i16 %0, ptr %1\n  %2 = load i16, ptr %1\n  %3 = add i16 %2, -6\n  %4 = add i16 %3, 26\n  %5 = add i16 %4, -2\n  ret i16 %5\n}\n"
	prepassTgt = "define i16 @arith_chain_0(i16 noundef %0) #0 {\n  %1 = add i16 %0, 17\n  ret i16 %1\n}\n"
)

// prepassPair is prepassSrc and prepassTgt, parsed.
func prepassPair(tb testing.TB) (*ir.Function, *ir.Function) {
	tb.Helper()
	f, err := ir.ParseFunc(prepassSrc)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := ir.ParseFunc(prepassTgt)
	if err != nil {
		tb.Fatal(err)
	}
	return f, g
}

// verifyPrepass is one verification the pre-pass refutes.
func verifyPrepass(tb testing.TB, f, g *ir.Function) alive.Result {
	r := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if r.Verdict != alive.SemanticError || r.SolverConflicts != 0 {
		tb.Fatalf("arith_chain_0 against its off-by-one miscompile: %s, %d conflicts", r.Verdict, r.SolverConflicts)
	}
	return r
}

// knownBitsI32 is BenchmarkVerifyTail's known-bits-i32: against its
// instcombine output (ret i32 1) no query folds, and a solver answers
// the session's one batched query Unsat.
const knownBitsI32 = "define i32 @f(i32 noundef %0) {\n  %2 = and i32 %0, 7\n  %3 = icmp ult i32 %2, 9\n  %4 = zext i1 %3 to i32\n  ret i32 %4\n}\n"

// knownBitsPair is knownBitsI32 and its instcombine output.
func knownBitsPair(tb testing.TB) (*ir.Function, *ir.Function) {
	tb.Helper()
	f, err := ir.ParseFunc(knownBitsI32)
	if err != nil {
		tb.Fatal(err)
	}
	return f, instcombine.Run(f)
}

// verifyEquivalent is one verification that must answer Equivalent.
func verifyEquivalent(tb testing.TB, f, g *ir.Function) alive.Result {
	r := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if r.Verdict != alive.Equivalent {
		tb.Fatalf("%s against its instcombine output: %s", f.NameStr, r.Verdict)
	}
	return r
}

// beamMid is one search on a stack nothing has warmed, as search-cold
// runs them.
func beamMid(tb testing.TB, f *ir.Function) *seqopt.SearchResult {
	res, err := seqopt.Beam(context.Background(), f, seqopt.SearchConfig{Oracle: oracle.NewStack(oracle.Config{})})
	if err != nil || res.Best.Latency >= res.Base.Latency {
		tb.Fatalf("beam over @%s: best latency %d from %d, err %v", f.NameStr, res.Best.Latency, res.Base.Latency, err)
	}
	return res
}

// diamondO0 is an O0-shaped diamond: one alloca stored in both arms
// and loaded at the join, so only mem2reg, with a phi, takes it off the
// stack.
const diamondO0 = `define i32 @diamond(i32 noundef %a, i32 noundef %b) {
entry:
  %r = alloca i32
  %c = icmp sgt i32 %a, %b
  br i1 %c, label %then, label %else

then:
  %s = sub i32 %a, %b
  store i32 %s, ptr %r
  br label %join

else:
  %t = sub i32 %b, %a
  store i32 %t, ptr %r
  br label %join

join:
  %v = load i32, ptr %r
  ret i32 %v
}
`

// beamDiamond is one search over diamondO0 on a stack nothing has
// warmed, whose winner mem2reg made.
func beamDiamond(tb testing.TB, f *ir.Function) *seqopt.SearchResult {
	res := beamMid(tb, f)
	if !slices.Contains(res.Sequence, "mem2reg") {
		tb.Fatalf("beam over diamondO0 wins with %v, without mem2reg", res.Sequence)
	}
	return res
}

// splatO0 is the seed-12 corpus's tenth input, @sign_splat_9, which
// search-cold searches: a Beam over it keeps eight states and wins with
// mem2reg, if-to-select and combine.
func splatO0(tb testing.TB) *ir.Function {
	tb.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 10, SkipVerify: true})
	if err != nil {
		tb.Fatal(err)
	}
	f := samples[9].O0
	if f.NameStr != "sign_splat_9" {
		tb.Fatalf("the seed-12 corpus's tenth input is @%s, not @sign_splat_9", f.NameStr)
	}
	return f
}

// clones makes k copies of f by one Copier and releases none, as a
// search keeps its new states.
func clones(f *ir.Function, k int) {
	var c ir.Copier
	for range k {
		c.Clone(f)
	}
}

// runMid is one concrete execution, as the corpus labeller makes them.
func runMid(tb testing.TB, f *ir.Function) *interp.Outcome {
	o, err := interp.Run(f, []interp.Val{interp.V(9), interp.V(3), interp.V(40)}, interp.DefaultConfig())
	if err != nil || o.UB {
		tb.Fatalf("midFn on (9, 3, 40): %+v, %v", o, err)
	}
	return o
}

func TestIRFrontHalfAllocCeilings(t *testing.T) {
	f, combine := midFunc(t), combinePass(t)
	loop, loopArgs := loopMutant(t)
	opt := instcombine.Run(f)
	key := midKey(f, opt)
	neg, negOpt := foldedPair(t)
	pre, preBad := prepassPair(t)
	kb, kbOpt := knownBitsPair(t)
	renumbered := ir.CloneFunc(f)
	ir.RenumberFunc(renumbered)
	if _, changed := combine.Apply(f); !changed {
		t.Fatal("combine does not fire on midFn; its ceiling would be vacuous")
	}
	// DeadCodeElim prunes a fresh copy per run, made outside the count:
	// midFn with the join's phi handed to %a, which leaves it dead and
	// with it a chain back through both arms.
	pruned := make([]*ir.Function, 51) // AllocsPerRun's warm-up run and 50 more
	for i := range pruned {
		pruned[i] = ir.CloneFunc(f)
		ir.ReplaceAllUses(pruned[i], pruned[i].Blocks[3].Instrs[0], pruned[i].Params[0])
	}
	if n := ir.DeadCodeElim(ir.CloneFunc(pruned[0])); n < 8 {
		t.Fatalf("DeadCodeElim removes %d instructions from the pruned midFn; its ceiling would be close to vacuous", n)
	}
	// A search's copier, holding the memory of a first copy of midFn,
	// and a server's, holding a first parse of it.
	var copier, parser ir.Copier
	copier.Clone(f)
	if _, err := parser.Parse(midFn); err != nil {
		t.Fatal(err)
	}
	diamond, err := ir.ParseFunc(diamondO0)
	if err != nil {
		t.Fatal(err)
	}
	splat := splatO0(t)
	// A stack with no backing that has answered midFn, renumbered as
	// every search state is, against its instcombine output once.
	warm := oracle.NewStack(oracle.Config{})
	hit := func() {
		if r := warm.Verify(context.Background(), renumbered, opt, alive.DefaultOptions()); r.Verdict != alive.Equivalent {
			t.Fatalf("midFn against its instcombine output: %s", r.Verdict)
		}
	}
	hit()
	for _, tc := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"ir.ParseFunc", 11, func() { midFunc(t) }},
		{"ir.ParseFunc, syntax error", 16, func() { parseGarbled(t) }},
		{"ir.Copier.Parse, into released memory", 0, func() { parser.Release(); parser.Parse(midFn) }},
		{"ir.VerifyFunc", 2, func() { _ = ir.VerifyFunc(f) }},
		{"vcache.KeyOfFunc", 6, func() { vcache.KeyOfFunc(f) }},
		{"ir.CanonicalKey, renumbered", 1, func() { ir.CanonicalKey(renumbered) }},
		{"vcache.Key.Fingerprint", 0, func() { key.Fingerprint() }},
		{"combine pass", 34, func() { combine.Apply(f) }},
		{"ir.CloneFunc", 10, func() { ir.CloneFunc(f) }},
		{"ir.Copier.Clone, into released memory", 0, func() { copier.Release(); copier.Clone(f) }},
		{"ir.Copier.Clone, 8 kept copies", 9 * 4, func() { clones(f, 8) }},
		{"ir.DeadCodeElim", 0, func() { ir.DeadCodeElim(pruned[0]); pruned = pruned[1:] }},
		{"interp.Run", 2, func() { runMid(t, f) }},
		{"interp.Run, step limit", 2, func() { runToLimit(t, loop, loopArgs) }},
		{"alive.VerifyFuncs", 225, func() { verifyMid(t, f, opt) }},
		{"alive.VerifyFuncs, folded", 2, func() { verifyFolded(t, neg, negOpt) }},
		{"alive.VerifyFuncs, pre-pass refuted", 35, func() { verifyPrepass(t, pre, preBad) }},
		{"alive.VerifyFuncs, solver Unsat", 37, func() { verifyEquivalent(t, kb, kbOpt) }},
		{"seqopt.Beam", 659, func() { beamMid(t, f) }},
		{"seqopt.Beam, mem2reg fires", 80, func() { beamDiamond(t, diamond) }},
		{"seqopt.Beam, seed-12 @sign_splat_9", 327, func() { beamMid(t, splat) }},
		{"oracle.Stack.Verify, hot-tier hit", 0, hit},
	} {
		got := testing.AllocsPerRun(50, tc.fn)
		t.Logf("%s: %.0f allocations per run", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per run on midFn, ceiling %.0f", tc.name, got, tc.ceiling)

		}
	}
}

// TestGeneratedSampleRetention holds what a generated corpus keeps alive
// per sample after a collection: the O0 function, its instcombine
// reference, their texts and the module. The reference is the one clone
// the product keeps after mutating away most of it, so this is where a
// clone that pinned its deleted instructions would show (serve-cold's
// set-up holds a corpus of them). The ceiling is about 5 % above what
// this read while a clone was an object per instruction: 6 345–6 382
// bytes then, 6 397 with slabs, 7 840 with slabs and instcombine.Run
// returning its working copy instead of a clone of it.
func TestGeneratedSampleRetention(t *testing.T) {
	const n, ceiling = 1024, 6700
	generate := func(n int) []*dataset.Sample {
		samples, err := dataset.Generate(dataset.Config{Seed: 12, N: n, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	generate(64) // package-level tables and memos, built on first use
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	samples := generate(n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(samples)
	t.Logf("%.0f bytes retained per sample", perSample)
	if perSample > ceiling {
		t.Errorf("%.0f bytes retained per generated sample, ceiling %d", perSample, ceiling)
	}
}

// TestBeamResultRetention holds what 200 Beam results keep alive after
// a collection, per result: the winner, its sequence and the result.
// The states of a search share its copier's chunks, so a winner kept in
// them would keep every state of its search (19 159 bytes a result,
// when finish handed out the winner where the search built it); finish
// copies it into fresh memory, and a result reads 1 508. The ceiling is
// about 10 % above what the parent of that change read, 3 376, when
// every state had slabs of its own, some a released copy's, larger
// than it.
func TestBeamResultRetention(t *testing.T) {
	const n, ceiling = 200, 3700
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: n, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := seqopt.SearchConfig{Oracle: oracle.NewStack(oracle.Config{})}
	results := make([]*seqopt.SearchResult, n)
	for i, s := range samples {
		if results[i], err = seqopt.Beam(context.Background(), s.O0, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	clear(results)
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	perResult := float64(int64(held.HeapAlloc)-int64(dropped.HeapAlloc)) / n
	t.Logf("%.0f bytes retained per result", perResult)
	if perResult > ceiling {
		t.Errorf("%.0f bytes retained per Beam result, ceiling %d", perResult, ceiling)
	}
}

var benchSink any

func BenchmarkParseFunc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = midFunc(b)
	}
	reportPerInstr(b, midFunc(b))
}

// BenchmarkParseLarge parses the printed largeFunc, about 2 000
// instructions in three blocks: its ns/instr beside BenchmarkParseFunc's
// is where a lookup that grows with the function would show.
func BenchmarkParseLarge(b *testing.B) {
	f := largeFunc(b)
	text := ir.FuncString(f)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ir.ParseFunc(text)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = g
	}
	reportPerInstr(b, f)
}

// reportPerInstr reports the time per iteration over f's instruction
// count.
func reportPerInstr(b *testing.B, f *ir.Function) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.NumInstrs()), "ns/instr")
}

func BenchmarkVerifyFunc(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ir.VerifyFunc(f)
	}
}

func BenchmarkKeyOfFunc(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = vcache.KeyOfFunc(f)
	}
}

// midKey is the query midFn against its instcombine output is cached
// under: 1.2 KB as JSON, between the corpus's median and its largest.
func midKey(f, opt *ir.Function) vcache.Key {
	return vcache.Key{Src: vcache.KeyOfFunc(f), Dst: vcache.KeyOfFunc(opt), Opts: alive.DefaultOptions()}
}

func BenchmarkKeyFingerprint(b *testing.B) {
	f := midFunc(b)
	k := midKey(f, instcombine.Run(f))
	b.SetBytes(int64(len(k.Src) + len(k.Dst)))
	b.ReportAllocs()
	b.ResetTimer()
	var sum byte
	for i := 0; i < b.N; i++ {
		sum += k.Fingerprint()[0]
	}
	benchSink = sum
}

func BenchmarkCloneFunc(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ir.CloneFunc(f)
	}
}

// largeFunc is a generated function of about 2 000 instructions: a
// straight-line chain of 1 000 in the entry block, then a loop of as
// many whose accumulators are phis. Every 50th value of each half goes
// unused. It is where a lookup by position, which the clone and DCE
// make in place of a map, would show a size cliff.
func largeFunc(tb testing.TB) *ir.Function {
	tb.Helper()
	const n = 1000
	var src strings.Builder
	src.WriteString("define i32 @large(i32 noundef %a, i32 noundef %b) {\nentry:\n  %c0 = add i32 %a, %b\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "  %%c%d = %s i32 %%c%d, %d\n", i, [...]string{"add", "mul", "xor", "sub"}[i%4], i-1, i)
		if i%50 == 0 {
			fmt.Fprintf(&src, "  %%dc%d = and i32 %%c%d, %%b\n", i, i)
		}
	}
	fmt.Fprintf(&src, "  br label %%loop\n\nloop:\n  %%i = phi i32 [ 0, %%entry ], [ %%i1, %%loop ]\n  %%s0 = phi i32 [ %%c%d, %%entry ], [ %%s%d, %%loop ]\n", n-1, n-1)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "  %%s%d = %s i32 %%s%d, %%i\n", i, [...]string{"add", "xor", "or", "sub"}[i%4], i-1)
		if i%50 == 0 {
			fmt.Fprintf(&src, "  %%ds%d = shl i32 %%s%d, 1\n", i, i)
		}
	}
	fmt.Fprintf(&src, "  %%i1 = add i32 %%i, 1\n  %%cmp = icmp ult i32 %%i1, %%b\n  br i1 %%cmp, label %%loop, label %%out\n\nout:\n  ret i32 %%s%d\n}\n", n-1)
	f, err := ir.ParseFunc(src.String())
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func BenchmarkCloneFuncLarge(b *testing.B) {
	f := largeFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ir.CloneFunc(f)
	}
}

// BenchmarkDeadCodeElimLarge prunes a fresh copy of largeFunc each
// time, copied with the timer stopped: 38 unused values go.
func BenchmarkDeadCodeElimLarge(b *testing.B) {
	f := largeFunc(b)
	if n := ir.DeadCodeElim(ir.CloneFunc(f)); n != 38 {
		b.Fatalf("DeadCodeElim removes %d instructions from largeFunc, want 38", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := ir.CloneFunc(f)
		b.StartTimer()
		benchSink = ir.DeadCodeElim(g)
	}
}

// largeAllocaFunc is largeFunc's shape as clang -O0 emits it: every
// value lives in one of 16 allocas declared at the top of the entry
// block, and each step loads its operand and stores its result, 2 050
// instructions in all. The loop's first loads need a phi for every
// alloca. It is where mem2reg's lookups by position, and the clone's
// for an alloca named far below it, would show a size cliff.
func largeAllocaFunc(tb testing.TB) *ir.Function {
	tb.Helper()
	const n, k = 290, 16
	ops := [...]string{"add", "mul", "xor", "sub"}
	var src strings.Builder
	src.WriteString("define i32 @large0(i32 noundef %a, i32 noundef %b) {\nentry:\n  %i.addr = alloca i32\n")
	for j := range k {
		fmt.Fprintf(&src, "  %%v%d = alloca i32\n", j)
	}
	src.WriteString("  store i32 %a, ptr %v0\n  store i32 0, ptr %i.addr\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "  %%l%d = load i32, ptr %%v%d\n  %%c%d = %s i32 %%l%d, %d\n  store i32 %%c%d, ptr %%v%d\n",
			i, (i-1)%k, i, ops[i%4], i, i, i, i%k)
	}
	src.WriteString("  br label %loop\n\nloop:\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, "  %%x%d = load i32, ptr %%v%d\n  %%j%d = load i32, ptr %%i.addr\n  %%s%d = %s i32 %%x%d, %%j%d\n  store i32 %%s%d, ptr %%v%d\n",
			i, (i-1)%k, i, i, ops[i%4], i, i, i, i%k)
	}
	fmt.Fprintf(&src, "  %%i0 = load i32, ptr %%i.addr\n  %%i1 = add i32 %%i0, 1\n  store i32 %%i1, ptr %%i.addr\n  %%cmp = icmp ult i32 %%i1, %%b\n  br i1 %%cmp, label %%loop, label %%out\n\nout:\n  %%r = load i32, ptr %%v%d\n  ret i32 %%r\n}\n", (n-1)%k)
	f, err := ir.ParseFunc(src.String())
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// BenchmarkMem2RegLarge promotes a fresh copy of largeAllocaFunc each
// time, copied with the timer stopped; the rule copies it again itself.
func BenchmarkMem2RegLarge(b *testing.B) {
	f := largeAllocaFunc(b)
	if g := ir.CloneFunc(f); !rewrite.Mem2Reg.Apply(g, nil) || strings.Contains(ir.FuncString(g), "alloca") {
		b.Fatal("extra-mem2reg leaves an alloca in largeAllocaFunc")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := ir.CloneFunc(f)
		b.StartTimer()
		benchSink = rewrite.Mem2Reg.Apply(g, nil)
	}
}

func BenchmarkCombinePass(b *testing.B) {
	f, combine := midFunc(b), combinePass(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = combine.Apply(f)
	}
}

func BenchmarkVerifyMid(b *testing.B) {
	f := midFunc(b)
	opt := instcombine.Run(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = verifyMid(b, f, opt)
	}
}

// BenchmarkVerifyLarge verifies largeFunc against its instcombine
// output: 2 078 instructions, far past the executor's arrays, where a
// lookup by position would show a size cliff. The loop's bound is a
// parameter, so the source's unrolling stops at the step budget: what
// it times is resolving every operand and executing 4 096 instructions
// of a function that fits none of the arrays, not a solver.
func BenchmarkVerifyLarge(b *testing.B) {
	f := largeFunc(b)
	opt := instcombine.Run(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := alive.VerifyFuncs(f, opt, alive.DefaultOptions())
		if r.Reason().String() != "step_limit" {
			b.Fatalf("largeFunc against its instcombine output: %s (%s), want the step limit", r.Verdict, r.Diag)
		}
		benchSink = r
	}
}

// BenchmarkVerifyPrepass is the miscompile serve-cold asks most: the
// seed-12 corpus's first function against its off-by-one, which the
// session's pre-pass refutes before anything is blasted.
func BenchmarkVerifyPrepass(b *testing.B) {
	f, g := prepassPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = verifyPrepass(b, f, g)
	}
}

func BenchmarkBeamMid(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = beamMid(b, f)
	}
}

// BenchmarkVerifyTail is the verifier's tail as a command: the three
// corpus shapes that were 78 % of serve-warm's fill while they went to
// the solver (i64 negation, sdiv by 2^k and xor-cancel: 35 ms, 8 ms and
// 2.3 ms apiece on this host then, 5–10 µs now), multi-var (220 µs
// then), and known-bits as the control the normal form does not fold. Each is a template's source against its
// instcombine output.
func BenchmarkVerifyTail(b *testing.B) {
	for _, tc := range []struct{ name, src string }{
		{"negation-i64", negationI64},
		{"sdiv-pow2-i64", "define i64 @f(i64 noundef %0) {\n  %2 = sdiv i64 %0, 65536\n  ret i64 %2\n}\n"},
		{"xor-cancel-i64", "define i64 @f(i64 noundef %0, i64 noundef %1) {\n  %3 = xor i64 %0, %1\n  %4 = xor i64 %3, %1\n  ret i64 %4\n}\n"},
		{"multi-var-i32", "define i32 @f(i32 noundef %0, i32 noundef %1, i32 noundef %2) {\n  %4 = add i32 %0, %1\n  %5 = mul i32 %4, 4\n  %6 = sub i32 %5, %2\n  %7 = add i32 %6, 0\n  ret i32 %7\n}\n"},
		{"known-bits-i32", "define i32 @f(i32 noundef %0) {\n  %2 = and i32 %0, 7\n  %3 = icmp ult i32 %2, 9\n  %4 = zext i1 %3 to i32\n  ret i32 %4\n}\n"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, err := ir.ParseFunc(tc.src)
			if err != nil {
				b.Fatal(err)
			}
			opt := instcombine.Run(f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := alive.VerifyFuncs(f, opt, alive.DefaultOptions())
				if r.Verdict != alive.Equivalent {
					b.Fatalf("%s against its instcombine output: %s", tc.name, r.Verdict)
				}
				benchSink = r
			}
		})
	}
}

// BenchmarkInterpRun is the labeller's call: one-shot runs, a different
// function each time (256 samples across the five families), so a
// set-up cost a single hot function would amortize is paid in full.
func BenchmarkInterpRun(b *testing.B) {
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 256, SkipVerify: true})
	families := map[string]bool{}
	for _, s := range samples {
		families[s.Scenario] = true
	}
	if err != nil || len(families) != 5 {
		b.Fatalf("%d scenario families, err %v", len(families), err)
	}
	args := make([][]interp.Val, len(samples))
	for i, s := range samples {
		for j := range s.O0.Params {
			args[i] = append(args[i], interp.V(uint64(7*i+j+1)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(samples)
		benchSink, _ = interp.Run(samples[k].O0, args[k], interp.DefaultConfig())
	}
}

// loopMutant is a corpus loop an unsound rewrite left spinning, with
// arguments it spins on: the first mutant of a seed-12 loop sample's
// reference that runs to the 10 000-step limit on probe-style inputs.
// Runs like it are under 1 % of the labeller's runs and hold 86 % of
// its steps.
func loopMutant(tb testing.TB) (*ir.Function, []interp.Val) {
	tb.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 256, SkipVerify: true})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for _, s := range samples {
		if s.Scenario != dataset.ScenarioLoop {
			continue
		}
		for _, r := range rewrite.Unsound() {
			g := ir.CloneFunc(s.Ref)
			if !r.Applicable(g) || !r.Apply(g, rng) || ir.VerifyFunc(g) != nil {
				continue
			}
			args := make([]interp.Val, len(g.Params))
			for j := range args {
				args[j] = interp.V(uint64(7*j + 3))
			}
			if _, err := interp.Run(g, args, interp.DefaultConfig()); err != nil && err.Error() == "interp: step limit exceeded" {
				return g, args
			}
		}
	}
	tb.Fatal("no seed-12 loop mutant reaches the step limit")
	return nil, nil
}

// runToLimit is one run of loopMutant, which must end at the step limit.
func runToLimit(tb testing.TB, f *ir.Function, args []interp.Val) error {
	_, err := interp.Run(f, args, interp.DefaultConfig())
	if err == nil || err.Error() != "interp: step limit exceeded" {
		tb.Fatalf("loop mutant: %v, want the step limit", err)
	}
	return err
}

// BenchmarkInterpRunLoop runs loopMutant to the step limit: 10 000
// steps per run, where a per-step cost shows and a set-up cost does
// not.
func BenchmarkInterpRunLoop(b *testing.B) {
	f, args := loopMutant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = runToLimit(b, f, args)
	}
}

// BenchmarkInterpRunLarge runs largeFunc once per iteration: 1 000
// straight-line steps, then its loop of 1 000 once, every instruction
// of a 2 000-instruction function visited, where a lookup by position
// made while setting up a run would show a size cliff.
func BenchmarkInterpRunLarge(b *testing.B) {
	f := largeFunc(b)
	args := []interp.Val{interp.V(5), interp.V(1)}
	if o, err := interp.Run(f, args, interp.DefaultConfig()); err != nil || o.UB {
		b.Fatalf("largeFunc on (5, 1): %+v, %v", o, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = interp.Run(f, args, interp.DefaultConfig())
	}
}

// BenchmarkGenerateSkipVerify is the corpus path under setup_s less the
// labelling: lower, instcombine, print, the context-length filter.
func BenchmarkGenerateSkipVerify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 1024, SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = samples
	}
}
