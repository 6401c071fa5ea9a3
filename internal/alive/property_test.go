package alive

import (
	"math/rand"
	"testing"

	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
)

// mutants applies small random semantic mutations to a function.
func mutate(f *ir.Function, rng *rand.Rand) *ir.Function {
	g := ir.CloneFunc(f)
	var muts []func() bool
	g.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op.IsBinary() {
			muts = append(muts, func() bool {
				// Perturb a constant or swap operands.
				if c, ok := in.Args[1].(*ir.Const); ok && rng.Intn(2) == 0 {
					in.Args[1] = ir.NewConst(c.Ty, c.Signed()+int64(rng.Intn(3)+1))
				} else {
					in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				}
				return true
			})
			muts = append(muts, func() bool {
				in.Flags.NSW = true
				return true
			})
		}
		if in.Op == ir.OpICmp {
			muts = append(muts, func() bool {
				in.Pred = in.Pred.Inverse()
				return true
			})
		}
	})
	if len(muts) == 0 {
		return g
	}
	muts[rng.Intn(len(muts))]()
	return g
}

// propOptions bounds the solver so pathological random instances
// (variable 32-bit multiplier proofs) go Inconclusive and are skipped
// instead of dominating the test's wall clock.
func propOptions() Options {
	o := DefaultOptions()
	o.SolverBudget = 25000
	return o
}

// buildRandomFn synthesizes a small straight-line function.
func buildRandomFn(rng *rand.Rand) *ir.Function {
	tys := []ir.IntType{ir.I8, ir.I16, ir.I32}
	ty := tys[rng.Intn(len(tys))]
	b := ir.NewBuilder("f", ty, ty, ty)
	b.NewBlock("")
	vals := []ir.Value{b.Param(0), b.Param(1)}
	ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr}
	n := 2 + rng.Intn(5)
	muls := 0
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		if op == ir.OpMul {
			muls++
			if muls > 1 {
				op = ir.OpAdd // cap the multiplier count per function
			}
		}
		x := vals[rng.Intn(len(vals))]
		var y ir.Value
		if rng.Intn(2) == 0 {
			y = vals[rng.Intn(len(vals))]
		} else {
			hi := int64(ty.Bits)
			if op != ir.OpShl && op != ir.OpLShr && op != ir.OpAShr {
				hi = 32
			}
			y = ir.NewConst(ty, rng.Int63n(hi))
		}
		vals = append(vals, b.Bin(op, x, y))
	}
	b.Ret(vals[len(vals)-1])
	return b.Fn
}

// TestCounterexamplesAreReal is the cross-stack property: whenever
// the symbolic verifier reports a semantic error with a
// counterexample, concretely interpreting both functions on that
// counterexample must expose a genuine refinement violation.
func TestCounterexamplesAreReal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	errors := 0
	for iter := 0; iter < 60; iter++ {
		src := buildRandomFn(rng)
		if err := ir.VerifyFunc(src); err != nil {
			t.Fatalf("generated function invalid: %v", err)
		}
		tgt := mutate(src, rng)
		if err := ir.VerifyFunc(tgt); err != nil {
			continue // mutation broke structure; not interesting here
		}
		res := VerifyFuncs(src, tgt, propOptions())
		if res.Verdict != SemanticError {
			continue
		}
		errors++
		if !refinetest.Witness(t, src, tgt, res.Counterexample) {
			t.Fatalf("iteration %d: counterexample %v does not distinguish:\nsrc:\n%s\ntgt:\n%s\ndiag: %s",
				iter, res.Counterexample, ir.FuncString(src), ir.FuncString(tgt), res.Diag)
		}
	}
	if errors < 10 {
		t.Errorf("only %d/60 mutations produced semantic errors; property undertested", errors)
	}
}

// TestEquivalentVerdictsAgreeWithSampling is the dual property: when
// the verifier proves equivalence, sampled concrete runs must never
// distinguish the functions.
func TestEquivalentVerdictsAgreeWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	proven := 0
	for iter := 0; iter < 60; iter++ {
		src := buildRandomFn(rng)
		tgt := mutate(src, rng)
		if err := ir.VerifyFunc(tgt); err != nil {
			continue
		}
		res := VerifyFuncs(src, tgt, propOptions())
		if res.Verdict != Equivalent {
			continue
		}
		proven++
		if in, err := refinetest.Falsify(src, tgt, int64(iter), 16); in != nil || err != nil {
			t.Fatalf("iteration %d: proven-equivalent pair distinguished on %v (%v):\nsrc:\n%s\ntgt:\n%s",
				iter, in, err, ir.FuncString(src), ir.FuncString(tgt))
		}
		// The 16 inputs were once drawn from rng, which also makes the
		// pairs; it still skips those draws, so the pairs stay the ones
		// this test has always checked.
		for range 16 * len(src.Params) {
			rng.Uint64()
		}
	}
	if proven < 5 {
		t.Logf("note: only %d/60 mutations were accidentally sound", proven)
	}
}
