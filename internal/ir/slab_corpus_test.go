package ir_test

import (
	"math/rand"
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
func TestVerifyAndCFGMatchReferenceOnCorpus(t *testing.T) {
	multi, phis := 0, 0
	for _, text := range corpusTexts(t, 7, 3) {
		f := parse(t, text)
		ir.CheckVerify(t, f)
		ir.CheckCFG(t, f)
		if err := ir.VerifyFunc(f); err != nil {
			t.Errorf("corpus function rejected: %v\n%s", err, text)
		}
		if len(f.Blocks) > 1 {
			multi++
		}
		f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) { phis += len(in.Incs) })
	}
	if multi < 50 || phis < 50 {
		t.Errorf("%d multi-block functions and %d phi incomings compared; the test is close to vacuous", multi, phis)
	}
}

// FuzzVerifyFuncVsReference: whatever parses, VerifyFunc and the CFG
// analysis answer as the reference implementations in ref_test.go do,
// and whatever also verifies clones and loses its dead code as they do.
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
			if ir.VerifyFunc(fn) == nil {
				ir.CheckClone(t, fn)
				ir.CheckDCE(t, fn)
			}
		}
	})
}

// TestCloneMatchesReference: on every corpus function, parsed and
// cloned once already, CloneFunc copies what the clone it replaced
// (ref_test.go) copied and shares what it shared.
func TestCloneMatchesReference(t *testing.T) {
	for _, text := range corpusTexts(t, 7, 3) {
		f := parse(t, text)
		ir.CheckClone(t, f)
		ir.CheckClone(t, ir.CloneFunc(f))
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
