package ir_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// corpusTexts returns, for perTemplate samples of every dataset
// template (all five scenario families) at the given seed, the O0 text,
// the reference text and — the corpus itself holds no phi — the text of
// the O0 function after mem2reg.
func corpusTexts(tb testing.TB, seed int64, perTemplate int) []string {
	tb.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: seed, N: perTemplate * datasetTemplates, SkipVerify: true})
	if err != nil {
		tb.Fatal(err)
	}
	families := map[string]bool{}
	for _, s := range samples {
		families[s.Scenario] = true
	}
	if n := len(families); n != 5 {
		tb.Fatalf("slice covers %d scenario families, want 5", n)
	}
	var mem2reg *rewrite.Rule
	for _, r := range rewrite.Extra() {
		if r.Name == "extra-mem2reg" {
			mem2reg = r
		}
	}
	var texts []string
	for _, s := range samples {
		texts = append(texts, s.O0Text, s.RefText)
		if g := ir.CloneFunc(s.O0); mem2reg.Apply(g, nil) {
			texts = append(texts, ir.FuncString(g))
		}
	}
	return texts
}

func parse(tb testing.TB, text string) *ir.Function {
	tb.Helper()
	f, err := ir.ParseFunc(text)
	if err != nil {
		tb.Fatalf("%v\n%s", err, text)
	}
	return f
}

// TestVerifyAndCFGMatchReferenceOnCorpus: on every corpus function the
// dense verifier answers as the map-based reference does, and on every
// one with more than a block the analysis agrees with the reference's
// maps node by node — predecessors, reachability, immediate dominators.
// Every operand, phi incoming and successor is found where the
// reference layout scan finds it, a definition below its use included.
func TestVerifyAndCFGMatchReferenceOnCorpus(t *testing.T) {
	multi, phis, below := 0, 0, 0
	for _, text := range corpusTexts(t, 7, 3) {
		f := parse(t, text)
		ir.CheckVerify(t, f)
		ir.CheckCFG(t, f)
		below += ir.CheckPositions(t, f).Below
		if err := ir.VerifyFunc(f); err != nil {
			t.Errorf("corpus function rejected: %v\n%s", err, text)
		}
		if len(f.Blocks) > 1 {
			multi++
		}
		f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) { phis += len(in.Incs) })
	}
	if multi < 50 || phis < 50 || below < 1 {
		t.Errorf("%d multi-block functions, %d phi incomings and %d definitions below their use compared; the test is close to vacuous", multi, phis, below)
	}
}

// FuzzVerifyFuncVsReference: whatever parses, VerifyFunc, the CFG
// analysis and the operand and block search answer as the reference
// implementations in ref_test.go do, and whatever also verifies clones
// and loses its dead code as they do.
// Seeds: every template's texts, and what rewrite.Corruptions() makes
// of them that still parses — the malformed IR a policy emits first.
func FuzzVerifyFuncVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, text := range corpusTexts(f, 7, 1) {
		f.Add(text)
		for _, r := range rewrite.Corruptions() {
			if out := r.ApplyText(text, rng); out != text {
				if _, err := ir.Parse(out); err == nil {
					f.Add(out)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			ir.CheckVerify(t, fn)
			ir.CheckCFG(t, fn)
			ir.CheckPositions(t, fn)
			if ir.VerifyFunc(fn) == nil {
				ir.CheckClone(t, fn, ir.CloneFunc(fn))
				ir.CheckDCE(t, fn)
			}
		}
	})
}

// parseSeeds are the texts FuzzParseFuncVsReference starts from beside
// the corpus: each error the parser's bookkeeping decides, in the order
// it decides them, and the shapes that size it.
var parseSeeds = []string{
	"define i32 @f(i32 %a) {\n  ret i32 %a\xff\n}\n",
	"; caf\xe9\ndefine void @f() {\n  ret void\n}\n",
	"define i32 @f(i32 %a, i32 %a) {\n  ret i32 %a\n}\n",
	"define i32 @f(i32 %a, i32 %b, i32 %a, i64) {\n  ret i32 %a\n}\n",
	"define i32 @f(i32 %a) {\n  %x = add i32 %a, 1\n  %x = add i32 %a, 2\n  ret i32 %x\n}\n",
	"define i32 @f(i32 %a) {\n  %a = add i32 %a, 1\n  ret i32 %a\n}\n",
	"define i32 @f(i32 %a) {\nentry:\n  br label %b\n\nb:\n  br label %b\n\nb:\n  ret i32 %a\n}\n",
	"define i32 @f(i32 %a) {\nentry:\n  br label %loop\n\nloop:\n  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]\n  %i1 = add i32 %i, 1\n  %c = icmp ult i32 %i1, %a\n  br i1 %c, label %loop, label %out\n\nout:\n  ret i32 %i1\n}\n",
	"define i32 @f(i32 %a) {\n  %x = add i32 %a, %nowhere\n  ret i32 %x\n}\n",
	"define i32 @f(i32 %a) {\nentry:\n  br label %loop\n\nloop:\n  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]\n  %i1 = add i64 0, 1\n  br label %loop\n}\n",
	"define i32 @f(i32 %a) {\n  %x = select i1 %later, i32 %a, i32 1\n  %later = icmp eq i32 %a, 0\n  ret i32 %x\n}\n",
	"declare i32 @ext(i32 noundef, ptr) readnone\n\ndefine i32 @f(i32 %a) {\n  %x = call i32 @ext(i32 %a, ptr @g)\n  ret i32 %x\n}\n",
	"declare i32 @ext(i32\n\ndefine i32 @f(i32 %a) {\n  ret i32 %a\n}\n",
	"define i32 @f(i32 %a) {\n  ret i32 %a\n}\n\ndefine i32 @g(i32 %b) {\n  ret i32 %b\n}\n",
	"define i32 @f(i32 %a) {\n  ret i32 %a\n}\n\ndefine i32 @g(i32 %b) {\n  ret i32 %nope\n}\n",
	"define i32 @f(i32 %a) {\n  ret i32 %a\n}\n\nwhat\n",
	"; nothing but a comment\n",
	"define i32 @f(i32 %a) #0 #1   (x) {\n  ret i32 %a\n}\n",
	"define i32 @f(i32 %a) {\nentry:\n  br label %next\n\nnext:   ; preds = %entry\n  ret i32 %a\n} ; end\n",
	"define i32 @f(i32 %a) {\n  br label %nxt\n\nnext: ; x: y\n  ret i32 %a ; }\n}\n",
	manyNames(70, 9),
	manyNames(300, 20),
	// A line of more tokens than the lexer's array holds.
	"define i32 @f(i32 %a) {\n  switch i32 %a, label %d [ i32 0, label %d i32 1, label %d i32 2, label %d i32 3, label %d i32 4, label %d i32 5, label %d i32 6, label %d i32 7, label %d ]\n\nd:\n  ret i32 %a\n}\n",
}

// manyNames is a function of a parameter, n instructions and about b
// blocks: at 70 and 9, past 64 names and 8 blocks; at 300 and 20, past
// the 96 names and 16 blocks the parser's and the verifier's arrays
// hold.
func manyNames(n, b int) string {
	var sb strings.Builder
	sb.WriteString("define i32 @many(i32 noundef %a) {\nentry:\n  %v0 = add i32 %a, 1\n")
	for i := 1; i < n; i++ {
		if i%(n/b+1) == 0 {
			fmt.Fprintf(&sb, "  br label %%b%d\n\nb%d:\n", i, i)
		}
		fmt.Fprintf(&sb, "  %%v%d = xor i32 %%v%d, %d\n", i, i-1, i)
	}
	fmt.Fprintf(&sb, "  ret i32 %%v%d\n}\n", n-1)
	return sb.String()
}

// midFn is the root package's midFn: four blocks, a phi and every kind
// of operand list, larger than most inputs a Copier parses.
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

// FuzzParseFuncVsReference: ParseFunc and Parse fail with the error text
// refParseFunc and refParse (ref_test.go) fail with, or both succeed
// with functions that print alike, are structurally equal and carry the
// same names. So does a Copier's Parse into released memory: a Copier
// that has parsed midFn, one that has parsed a one-line function, and
// each of them again into what its parse of the input left. Seeds:
// every template's texts, including instcombine's output, everything
// rewrite.Corruptions() makes of them, and parseSeeds.
func FuzzParseFuncVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, text := range corpusTexts(f, 7, 1) {
		f.Add(text)
		for _, r := range rewrite.Corruptions() {
			if out := r.ApplyText(text, rng); out != text {
				f.Add(out)
			}
		}
	}
	for _, text := range parseSeeds {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ir.CheckParse(t, src)
		for _, before := range []string{midFn, "define i32 @s(i32 %a) {\n  ret i32 %a\n}\n"} {
			var c ir.Copier
			if _, err := c.Parse(before); err != nil {
				t.Fatal(err)
			}
			ir.CheckCopierParse(t, &c, src)
		}
	})
}

// TestCloneMatchesReference: on every corpus function, parsed and
// cloned once already, CloneFunc copies what the clone it replaced
// (ref_test.go) copied and shares what it shared, and so does a Copier
// copying into the memory of the copy before; the copy's operands and
// successors are found where the reference layout scan finds them.
func TestCloneMatchesReference(t *testing.T) {
	var copier ir.Copier
	for _, text := range corpusTexts(t, 7, 3) {
		f := parse(t, text)
		ir.CheckClone(t, f, ir.CloneFunc(f))
		g := ir.CloneFunc(f)
		ir.CheckPositions(t, g)
		ir.CheckClone(t, g, ir.CloneFunc(g))
		// Into the memory of the last copy, which CheckClone wrote over:
		// the corpus functions differ in size, so some copies fit there
		// and some take fresh slabs.
		copier.Release()
		ir.CheckClone(t, f, copier.Clone(f))
	}
}

// TestDCEMatchesReferenceOnCorpus: DeadCodeElim removes what the
// map-based reference (ref_test.go) removes, on every seed-12 corpus
// function and on each copy of one whose uses of a result are handed to
// a parameter or a constant of its type. That leaves the result dead,
// and with it a chain of its operands, across blocks and through phis.
func TestDCEMatchesReferenceOnCorpus(t *testing.T) {
	chains, phis := 0, 0
	for _, text := range corpusTexts(t, 12, 3) {
		f := parse(t, text)
		ir.CheckDCE(t, f)
		for bi, b := range f.Blocks {
			for ii, in := range b.Instrs {
				sub := standIn(f, in.Ty)
				if !in.HasResult() || sub == nil {
					continue
				}
				g := ir.CloneFunc(f)
				ir.ReplaceAllUses(g, g.Blocks[bi].Instrs[ii], sub)
				ir.CheckDCE(t, g)
				blocks, phisBefore := len(g.Blocks[bi].Instrs), countPhis(g)
				if n := ir.DeadCodeElim(g); n > 1 && len(g.Blocks[bi].Instrs) > blocks-n {
					chains++ // some of the chain lay in another block
				}
				if countPhis(g) < phisBefore {
					phis++
				}
			}
		}
	}
	if chains < 40 || phis < 40 { // 45 and 57 when written
		t.Errorf("%d dead chains across blocks and %d through phis; the test is close to vacuous", chains, phis)
	}
}

// standIn is a parameter of f of type ty, else a constant of it, else
// nil.
func standIn(f *ir.Function, ty ir.Type) ir.Value {
	for _, p := range f.Params {
		if p.Ty.Equal(ty) {
			return p
		}
	}
	if it, ok := ty.(ir.IntType); ok {
		return ir.NewConst(it, 1)
	}
	return nil
}

func countPhis(f *ir.Function) int {
	n := 0
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpPhi {
			n++
		}
	})
	return n
}

// TestParsedSlicesDoNotAlias: a parsed function's operand, successor,
// incoming and instruction lists are windows of shared arrays, each
// capped at its own length, and so are a clone's, its case lists and
// block list besides. An append to any list — what a pass inserting an
// operand, a case, an instruction or a block does — must reallocate and
// not write into the next list's window. Dropping the cap from
// chunk.take, from a parsed block's window or from any of a clone's
// windows fails this test; the same function is checked parsed and then
// cloned.
func TestParsedSlicesDoNotAlias(t *testing.T) {
	intruderBlock := &ir.Block{NameStr: "INTRUDER"}
	intruder := &ir.Instr{Op: ir.OpUnreachable, NameStr: "INTRUDER", Ty: ir.Void, Parent: intruderBlock}
	intruderCase := ir.NewConst(ir.I32, 123456789)
	windows := 0
	for _, text := range corpusTexts(t, 7, 2) {
		for _, f := range []*ir.Function{parse(t, text), ir.CloneFunc(parse(t, text))} {
			before := ir.FuncString(f)
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, w := range [][2]int{{len(in.Args), cap(in.Args)}, {len(in.Succs), cap(in.Succs)}, {len(in.Incs), cap(in.Incs)}} {
						if w[0] != w[1] {
							t.Fatalf("%s: a list of %d has capacity %d\n%s", ir.FormatInstr(in), w[0], w[1], text)
						}
						windows++
					}
					_ = append(in.Args, ir.Value(intruder))
					_ = append(in.Succs, intruderBlock)
					_ = append(in.Incs, ir.Incoming{Val: intruder, Block: intruderBlock})
					_ = append(in.Cases, intruderCase)
				}
				if len(b.Instrs) != cap(b.Instrs) {
					t.Fatalf("block %s: %d instructions in a window of capacity %d\n%s", b.NameStr, len(b.Instrs), cap(b.Instrs), text)
				}
				_ = append(b.Instrs, intruder)
			}
			_ = append(f.Params, &ir.Param{NameStr: "INTRUDER", Ty: ir.I32})
			_ = append(f.Blocks, intruderBlock)
			if after := ir.FuncString(f); after != before {
				t.Fatalf("an append to one list wrote into another:\n%s\nwas:\n%s", after, before)
			}
		}
	}
	if windows < 1000 {
		t.Errorf("only %d lists checked", windows)
	}
}
