package alive_test

// Session/fresh-solver parity over the generated training corpus. This
// lives outside package alive because internal/dataset imports it.

import (
	"context"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
)

// breakFn clones f and perturbs the first constant operand it finds,
// manufacturing a semantically different target. Returns nil when f
// has no constant to perturb.
func breakFn(f *ir.Function) *ir.Function {
	g := ir.CloneFunc(f)
	broken := false
	g.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if broken || !in.Op.IsBinary() {
			return
		}
		if c, ok := in.Args[1].(*ir.Const); ok {
			in.Args[1] = ir.NewConst(c.Ty, c.Signed()+1)
			broken = true
		}
	})
	if !broken || ir.VerifyFunc(g) != nil {
		return nil
	}
	return g
}

// TestCorpusSessionParity verifies dataset-generated (O0, Ref) pairs —
// and constant-perturbed broken variants — with both the session and
// fresh-solver paths, requiring identical verdicts and concretely
// valid counterexamples throughout the corpus.
func TestCorpusSessionParity(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 11, N: 16, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := alive.DefaultOptions()
	opts.SolverBudget = 25000
	checked, semantic := 0, 0
	for _, s := range samples {
		targets := []*ir.Function{s.Ref}
		if broken := breakFn(s.Ref); broken != nil {
			targets = append(targets, broken)
		}
		for _, tgt := range targets {
			rs := alive.VerifyFuncs(s.O0, tgt, opts)
			rf := alive.VerifyFresh(context.Background(), s.O0, tgt, opts, false)
			if rs.Verdict != rf.Verdict {
				t.Fatalf("%s: session=%v fresh=%v\nsrc:\n%s\ntgt:\n%s\nsession diag: %s\nfresh diag: %s",
					s.Name, rs.Verdict, rf.Verdict, ir.FuncString(s.O0), ir.FuncString(tgt), rs.Diag, rf.Diag)
			}
			checked++
			if rs.Verdict == alive.SemanticError {
				semantic++
				for name, res := range map[string]alive.Result{"session": rs, "fresh": rf} {
					if !refinetest.Witness(t, s.O0, tgt, res.Counterexample) {
						t.Fatalf("%s: %s counterexample %v does not distinguish\nsrc:\n%s\ntgt:\n%s",
							s.Name, name, res.Counterexample, ir.FuncString(s.O0), ir.FuncString(tgt))
					}
				}
			}
		}
	}
	if checked < 16 || semantic < 4 {
		t.Errorf("corpus coverage too thin: %d pairs checked, %d semantic errors", checked, semantic)
	}
}
