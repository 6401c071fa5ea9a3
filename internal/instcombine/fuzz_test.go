package instcombine

import (
	"math/rand"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
)

// randFn synthesizes a random straight-line function exercising every
// binary opcode, compares, selects, and casts.
func randFn(rng *rand.Rand) *ir.Function {
	tys := []ir.IntType{ir.I8, ir.I16, ir.I32}
	ty := tys[rng.Intn(len(tys))]
	b := ir.NewBuilder("fuzz", ty, ty, ty)
	b.NewBlock("")
	vals := []ir.Value{b.Param(0), b.Param(1)}
	pick := func() ir.Value { return vals[rng.Intn(len(vals))] }
	n := 3 + rng.Intn(6)
	muls := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // binary op, constant RHS mostly
			ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
				ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem}
			op := ops[rng.Intn(len(ops))]
			if op == ir.OpMul {
				muls++
				if muls > 1 {
					op = ir.OpAdd
				}
			}
			var y ir.Value
			if op.IsDivRem() {
				y = ir.NewConst(ty, int64(1+rng.Intn(15))) // non-zero divisor
			} else if op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr {
				y = ir.NewConst(ty, int64(rng.Intn(ty.Bits)))
			} else if rng.Intn(3) == 0 {
				y = pick()
			} else {
				y = ir.NewConst(ty, int64(rng.Intn(40)-12))
			}
			fl := ir.Flags{}
			if rng.Intn(5) == 0 && (op == ir.OpAdd || op == ir.OpSub || op == ir.OpMul) {
				fl.NSW = true
			}
			vals = append(vals, b.BinF(op, pick(), y, fl))
		case 4, 5: // icmp + select
			preds := []ir.Pred{ir.PredEQ, ir.PredNE, ir.PredSLT, ir.PredUGT, ir.PredSLE, ir.PredULE}
			cmp := b.ICmp(preds[rng.Intn(len(preds))], pick(), pick())
			vals = append(vals, b.Select(cmp, pick(), pick()))
		case 6: // cast round trip
			narrow := ir.I8
			if ty.Bits <= 8 {
				break
			}
			tr := b.Cast(ir.OpTrunc, pick(), narrow)
			if rng.Intn(2) == 0 {
				vals = append(vals, b.Cast(ir.OpZExt, tr, ty))
			} else {
				vals = append(vals, b.Cast(ir.OpSExt, tr, ty))
			}
		default: // plain arithmetic on two existing values
			vals = append(vals, b.Bin(ir.OpAdd, pick(), pick()))
		}
	}
	b.Ret(vals[len(vals)-1])
	return b.Fn
}

// TestRunSoundOnRandomFunctions is the pass's fuzz harness: on random
// functions, Run's output must verify structurally, be proven a
// refinement by the symbolic checker (or at worst Inconclusive under
// a bounded budget), and agree with the interpreter on random inputs.
func TestRunSoundOnRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	opts := alive.DefaultOptions()
	opts.SolverBudget = 30000
	for iter := 0; iter < 80; iter++ {
		f := randFn(rng)
		if err := ir.VerifyFunc(f); err != nil {
			t.Fatalf("generator produced invalid function: %v", err)
		}
		g := Run(f)
		if err := ir.VerifyFunc(g); err != nil {
			t.Fatalf("iter %d: optimized output invalid: %v\nin:\n%s\nout:\n%s",
				iter, err, ir.FuncString(f), ir.FuncString(g))
		}
		res := alive.VerifyFuncs(f, g, opts)
		if res.Verdict == alive.SemanticError {
			t.Fatalf("iter %d: UNSOUND TRANSFORM\nin:\n%s\nout:\n%s\n%s",
				iter, ir.FuncString(f), ir.FuncString(g), res.Diag)
		}
		// Differential check on concrete inputs.
		for trial := 0; trial < 6; trial++ {
			args := []interp.Val{interp.V(rng.Uint64()), interp.V(rng.Uint64())}
			r, err := refinetest.Run(f, g, args)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if v := r.Violation(); v != "" {
				t.Fatalf("iter %d: %s on %v: in %+v, out %+v\nin:\n%s\nout:\n%s",
					iter, v, args, *r.Src, *r.Tgt, ir.FuncString(f), ir.FuncString(g))
			}
		}
	}
}

func TestExtendedRules(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"or-xor-and", `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = or i32 %0, %1
  %4 = and i32 %0, %1
  %5 = xor i32 %3, %4
  ret i32 %5
}
`, "xor i32 %0, %1"},
		{"and-or-add", `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = and i32 %0, %1
  %4 = or i32 %0, %1
  %5 = add i32 %3, %4
  ret i32 %5
}
`, "add i32 %0, %1"},
		{"sub-and-mask", `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = and i32 %0, %1
  %4 = sub i32 %0, %3
  ret i32 %4
}
`, "and i32"},
		{"demorgan-and", `define i8 @f(i8 noundef %0, i8 noundef %1) {
  %3 = xor i8 %0, -1
  %4 = xor i8 %1, -1
  %5 = and i8 %3, %4
  ret i8 %5
}
`, "or i8 %0, %1"},
		{"icmp-zext-zero", `define i1 @f(i8 noundef %0) {
  %2 = zext i8 %0 to i32
  %3 = icmp eq i32 %2, 0
  ret i1 %3
}
`, "icmp eq i8 %0, 0"},
		{"icmp-zext-out-of-range", `define i1 @f(i8 noundef %0) {
  %2 = zext i8 %0 to i32
  %3 = icmp eq i32 %2, 700
  ret i1 %3
}
`, "ret i1 false"},
		{"select-common-op", `define i32 @f(i1 noundef %0, i32 noundef %1) {
  %3 = add i32 %1, 5
  %4 = add i32 %1, 9
  %5 = select i1 %0, i32 %3, i32 %4
  ret i32 %5
}
`, "select i1 %0, i32 5, i32 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := checkSound(t, tc.src)
			text := ir.FuncString(g)
			if !containsStr(text, tc.want) {
				t.Errorf("missing %q in:\n%s", tc.want, text)
			}
		})
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
