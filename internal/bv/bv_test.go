package bv

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"veriopt/internal/sat"
)

// checkSat determines satisfiability of the width-1 term on a fresh
// Blaster and solver, with an optional conflict budget (0 =
// unlimited) and proof sink (nil: none); on Sat, Model gives a witness for every variable
// mentioned. It is the one-query-one-solver reference the tests hold
// terms and Session to.
func checkSat(t *Term, budget int, proof sat.ProofSink) (Result, error) {
	bl := NewBlaster(proof)
	bl.S.Budget = budget
	bl.AssertTrue(t)
	st, err := bl.S.Solve()
	if err != nil {
		return Result{Status: sat.Unknown, Conflicts: bl.S.Conflicts()}, err
	}
	res := Result{Status: st, Conflicts: bl.S.Conflicts()}
	if st == sat.Sat {
		res.Model = bl.Model()
	}
	return res, nil
}

// checkValid proves a width-1 term is true for all assignments by
// showing its negation unsatisfiable.
func checkValid(t *testing.T, b *Builder, prop *Term) {
	t.Helper()
	res, err := checkSat(b.Not(prop), 0, nil)
	if err != nil {
		t.Fatalf("solver: %v", err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("property not valid; counterexample %v", res.Model)
	}
}

// checkSatisfiable asserts the term has a model and cross-checks the
// model with the evaluator.
func checkSatisfiable(t *testing.T, prop *Term) map[string]uint64 {
	t.Helper()
	res, err := checkSat(prop, 0, nil)
	if err != nil {
		t.Fatalf("solver: %v", err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("expected Sat, got %v", res.Status)
	}
	v, ok := Eval(prop, res.Model)
	if !ok || v != 1 {
		t.Fatalf("model %v does not evaluate prop to true (got %d, ok=%v)", res.Model, v, ok)
	}
	return res.Model
}

func TestConstFold(t *testing.T) {
	b := NewBuilder()
	cases := []struct {
		got  *Term
		want uint64
	}{
		{b.Bin(OpAdd, b.Const(8, 250), b.Const(8, 10)), 4},
		{b.Bin(OpMul, b.Const(8, 16), b.Const(8, 16)), 0},
		{b.Bin(OpSDiv, b.Const(8, 0xF9), b.Const(8, 3)), 0xFE}, // -7/3 = -2
		{b.Bin(OpAShr, b.Const(8, 0x80), b.Const(8, 7)), 0xFF},
		{b.Bin(OpShl, b.Const(8, 1), b.Const(8, 9)), 0},
		{b.Cmp(OpSlt, b.Const(8, 0x80), b.Const(8, 0)), 1},
		{b.Cmp(OpUlt, b.Const(8, 0x80), b.Const(8, 0)), 0},
	}
	for i, tc := range cases {
		if tc.got.Op != OpConst {
			t.Errorf("case %d: not folded to const: %v", i, tc.got)
			continue
		}
		if tc.got.Val != tc.want {
			t.Errorf("case %d: got %d, want %d", i, tc.got.Val, tc.want)
		}
	}
}

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var(16, "x")
	y := b.Var(16, "y")
	t1 := b.Bin(OpAdd, x, y)
	t2 := b.Bin(OpAdd, x, y)
	if t1 != t2 {
		t.Error("identical terms not shared")
	}
	t3 := b.Bin(OpAdd, y, x)
	if t1 != t3 {
		t.Error("add x y and add y x should canonicalize to one node (commutativity)")
	}
	t4 := b.Bin(OpSub, x, y)
	t5 := b.Bin(OpSub, y, x)
	if t4 == t5 {
		t.Error("sub is not commutative; operands must not be reordered")
	}
}

func TestSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	zero := b.Const(32, 0)
	if b.Bin(OpAdd, x, zero) != x {
		t.Error("x+0 != x")
	}
	if b.Bin(OpXor, x, x) != zero {
		t.Error("x^x != 0")
	}
	if b.Bin(OpSub, x, x) != zero {
		t.Error("x-x != 0")
	}
	if b.Bin(OpAnd, x, x) != x {
		t.Error("x&x != x")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("~~x != x")
	}
	if b.Eq(x, x) != b.True() {
		t.Error("x==x not true")
	}
}

// TestNormalForm: each rule of the normal form interns the two spellings
// it exists for to one term, and the shapes it must leave alone keep
// their operator.
func TestNormalForm(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var(32, "x"), b.Var(32, "y"), b.Var(32, "z")
	c := func(v uint64) *Term { return b.Const(32, v) }
	bin := b.Bin
	for _, tc := range []struct {
		name      string
		got, want *Term
	}{
		{"x - y is x + neg y", bin(OpSub, x, y), bin(OpAdd, x, b.Neg(y))},
		{"0 - y is neg y", bin(OpSub, c(0), y), b.Neg(y)},
		{"neg neg", b.Neg(b.Neg(x)), x},
		{"0 - (0 - x)", bin(OpSub, c(0), bin(OpSub, c(0), x)), x},
		{"x + (0 - y) is x - y", bin(OpAdd, x, bin(OpSub, c(0), y)), bin(OpSub, x, y)},
		{"x + neg x", bin(OpAdd, x, b.Neg(x)), c(0)},
		{"(x - y) + y", bin(OpAdd, bin(OpSub, x, y), y), x},
		{"x + x is x << 1", bin(OpAdd, x, x), bin(OpShl, x, c(1))},
		{"x * 8 is x << 3", bin(OpMul, x, c(8)), bin(OpShl, x, c(3))},
		{"(x + 3) * 4 is (x << 2) + 12", bin(OpMul, bin(OpAdd, x, c(3)), c(4)), bin(OpAdd, bin(OpShl, x, c(2)), c(12))},
		{"((x + y) * 4) - z either way", bin(OpSub, bin(OpMul, bin(OpAdd, x, y), c(4)), z),
			bin(OpSub, bin(OpAdd, bin(OpShl, x, c(2)), bin(OpShl, y, c(2))), z)},
		{"(x * 3) * 5", bin(OpMul, bin(OpMul, x, c(3)), c(5)), bin(OpMul, x, c(15))},
		{"(x << 3) << 4", bin(OpShl, bin(OpShl, x, c(3)), c(4)), bin(OpShl, x, c(7))},
		{"x << 32", bin(OpShl, x, c(32)), c(0)},
		{"(x + 5) - 7", bin(OpSub, bin(OpAdd, x, c(5)), c(7)), bin(OpAdd, x, c(0xfffffffe))},
		{"x + 5 == 7", b.Eq(bin(OpAdd, x, c(5)), c(7)), b.Eq(x, c(2))},
		{"7 == 5 + x", b.Eq(c(7), bin(OpAdd, c(5), x)), b.Eq(x, c(2))},
		{"(x ^ y) ^ y", bin(OpXor, bin(OpXor, x, y), y), x},
		{"y ^ (y ^ x)", bin(OpXor, y, bin(OpXor, y, x)), x},
		{"(x | y) & x", bin(OpAnd, bin(OpOr, x, y), x), x},
		{"y | (x & y)", bin(OpOr, y, bin(OpAnd, x, y)), y},
		{"x & ~x", bin(OpAnd, x, b.Not(x)), c(0)},
		{"~x | x", bin(OpOr, b.Not(x), x), c(0xffffffff)},
		{"udiv 16", bin(OpUDiv, x, c(16)), bin(OpLShr, x, c(4))},
		{"udiv 1", bin(OpUDiv, x, c(1)), x},
		{"urem 16", bin(OpURem, x, c(16)), bin(OpAnd, x, c(15))},
		{"sdiv 16", bin(OpSDiv, x, c(16)),
			bin(OpAShr, bin(OpAdd, x, bin(OpLShr, bin(OpAShr, x, c(31)), c(28))), c(4))},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		got  *Term
		op   Op
	}{
		{"sdiv 1", bin(OpSDiv, x, c(1)), OpSDiv},
		{"sdiv -1", bin(OpSDiv, x, c(0xffffffff)), OpSDiv},
		{"sdiv by the sign bit", bin(OpSDiv, x, c(1<<31)), OpSDiv},
		{"udiv 0", bin(OpUDiv, x, c(0)), OpUDiv},
		{"urem 0", bin(OpURem, x, c(0)), OpURem},
		{"srem 16", bin(OpSRem, x, c(16)), OpSRem},
		{"udiv 12", bin(OpUDiv, x, c(12)), OpUDiv},
	} {
		if tc.got.Op != tc.op {
			t.Errorf("%s was rewritten to %v", tc.name, tc.got)
		}
	}
	// Nothing folds in (x + 5) - y: it stays as built, the constant where
	// it was, so it still shares x + 5 with whoever else built that.
	if got := bin(OpSub, bin(OpAdd, x, c(5)), y); got.Kids[0] != bin(OpAdd, x, c(5)) {
		t.Errorf("(x + 5) - y was reassociated: %v", got)
	}
	if hits := b.RuleHits(); hits["sub"] == 0 || hits["neg-neg"] == 0 || hits["merge"] == 0 || hits["sdiv-pow2"] != 1 {
		t.Errorf("rule hits %v", hits)
	}
}

// TestSumWindow: a sum over more distinct atoms than the window is left
// as built and still means what was written, and like terms inside the
// window cancel wherever they stand in it.
func TestSumWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		b := NewBuilder()
		n := 2 + rng.Intn(2*sumWindow)
		env := map[string]uint64{}
		var acc *Term
		var want uint64
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("v%d", rng.Intn(n))
			if _, seen := env[name]; !seen {
				env[name] = rng.Uint64() & 0xffff
			}
			atom := b.Bin(OpXor, b.Var(16, name), b.Const(16, 0x5a5a)) // not itself a sum
			v := env[name] ^ 0x5a5a
			switch op := []Op{OpAdd, OpSub}[rng.Intn(2)]; {
			case acc == nil:
				acc, want = atom, v
			case rng.Intn(2) == 0:
				acc = b.Bin(op, acc, atom)
				want = map[Op]uint64{OpAdd: want + v, OpSub: want - v}[op]
			default:
				acc = b.Bin(op, atom, acc)
				want = map[Op]uint64{OpAdd: v + want, OpSub: v - want}[op]
			}
		}
		if got, ok := Eval(acc, env); !ok || got != want&0xffff {
			t.Fatalf("iter %d: %v evaluates to %d (%v), want %d", iter, acc, got, ok, want&0xffff)
		}
		if zero := b.Bin(OpSub, acc, acc); zero != b.Const(16, 0) && n <= sumWindow {
			t.Fatalf("iter %d: a sum of %d terms minus itself is %v", iter, n, zero)
		}
	}
}

// TestBlastAgainstEvalExhaustive8 exhaustively compares the blasted
// semantics against the evaluator for all binary ops at width 4.
func TestBlastAgainstEvalExhaustive(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr, OpUDiv, OpSDiv, OpURem, OpSRem}
	const w = 4
	for _, op := range ops {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			for a := uint64(0); a < 1<<w; a++ {
				for c := uint64(0); c < 1<<w; c++ {
					if op == OpUDiv || op == OpSDiv || op == OpURem || op == OpSRem {
						if c == 0 {
							continue // undefined; unconstrained in both
						}
						if (op == OpSDiv || op == OpSRem) && c == mask(w) && a == 1<<(w-1) {
							continue // signed overflow; undefined
						}
					}
					b := NewBuilder()
					x := b.Var(w, "x")
					y := b.Var(w, "y")
					expr := b.Bin(op, x, y)
					want, _ := Eval(expr, map[string]uint64{"x": a, "y": c})
					// Assert expr != want under x=a, y=c: must be unsat.
					prop := b.BoolAnd(
						b.BoolAnd(b.Eq(x, b.Const(w, a)), b.Eq(y, b.Const(w, c))),
						b.Not(b.Eq(expr, b.Const(w, want))))
					res, err := checkSat(prop, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.Status != sat.Unsat {
						t.Fatalf("%v(%d,%d): blasted semantics disagree with Eval (want %d)", op, a, c, want)
					}
				}
			}
		})
	}
}

// TestBlastRandomWide cross-checks blasting vs Eval on random wide inputs.
func TestBlastRandomWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
	for iter := 0; iter < 60; iter++ {
		op := ops[rng.Intn(len(ops))]
		w := []int{8, 16, 32}[rng.Intn(3)]
		a := rng.Uint64() & mask(w)
		c := rng.Uint64() & mask(w)
		b := NewBuilder()
		x := b.Var(w, "x")
		y := b.Var(w, "y")
		expr := b.Bin(op, x, y)
		want, _ := Eval(expr, map[string]uint64{"x": a, "y": c})
		prop := b.BoolAnd(
			b.BoolAnd(b.Eq(x, b.Const(w, a)), b.Eq(y, b.Const(w, c))),
			b.Eq(expr, b.Const(w, want)))
		res, err := checkSat(prop, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sat.Sat {
			t.Fatalf("%v w=%d (%d,%d): model should exist", op, w, a, c)
		}
	}
}

func TestAlgebraicIdentitiesValid(t *testing.T) {
	type mk func(b *Builder, x, y *Term) *Term
	cases := []struct {
		name string
		w    int
		lhs  mk
		rhs  mk
	}{
		{"add-comm", 8,
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpAdd, x, y) },
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpAdd, y, x) }},
		{"demorgan", 8,
			func(b *Builder, x, y *Term) *Term { return b.Not(b.Bin(OpAnd, x, y)) },
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpOr, b.Not(x), b.Not(y)) }},
		{"sub-as-add-neg", 16,
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpSub, x, y) },
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpAdd, x, b.Neg(y)) }},
		{"mul2-as-shl1", 16,
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpMul, x, b.Const(16, 2)) },
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpShl, x, b.Const(16, 1)) }},
		{"xor-or-and", 8,
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpXor, x, y) },
			func(b *Builder, x, y *Term) *Term {
				return b.Bin(OpSub, b.Bin(OpOr, x, y), b.Bin(OpAnd, x, y))
			}},
		{"ashr-sign", 8,
			func(b *Builder, x, y *Term) *Term { return b.Bin(OpAShr, x, b.Const(8, 7)) },
			func(b *Builder, x, y *Term) *Term {
				return b.Ite(b.Cmp(OpSlt, x, b.Const(8, 0)), b.Const(8, 0xFF), b.Const(8, 0))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			x := b.Var(tc.w, "x")
			y := b.Var(tc.w, "y")
			checkValid(t, b, b.Eq(tc.lhs(b, x, y), tc.rhs(b, x, y)))
		})
	}
}

func TestUnsoundIdentityRejected(t *testing.T) {
	// x+1 > x is NOT valid (signed) because of overflow.
	b := NewBuilder()
	x := b.Var(8, "x")
	xp1 := b.Bin(OpAdd, x, b.Const(8, 1))
	prop := b.Cmp(OpSlt, x, xp1)
	res, err := checkSat(b.Not(prop), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatal("x < x+1 should have a counterexample (x=127)")
	}
	if res.Model["x"] != 127 {
		t.Errorf("counterexample x=%d, want 127", res.Model["x"])
	}
}

func TestDivisionAxioms(t *testing.T) {
	// For non-zero divisor: a == (a/b)*b + a%b (unsigned, w=8).
	b := NewBuilder()
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	q := b.Bin(OpUDiv, x, y)
	r := b.Bin(OpURem, x, y)
	recomposed := b.Bin(OpAdd, b.Bin(OpMul, q, y), r)
	prop := b.Implies(b.Not(b.Eq(y, b.Const(8, 0))), b.Eq(recomposed, x))
	checkValid(t, b, prop)
}

func TestSignedDivisionTowardZero(t *testing.T) {
	// -7 sdiv 2 == -3 (rounds toward zero), checked via the solver.
	b := NewBuilder()
	x := b.Var(8, "x")
	q := b.Bin(OpSDiv, x, b.Const(8, 2))
	prop := b.Implies(b.Eq(x, b.Const(8, 0xF9)), b.Eq(q, b.Const(8, 0xFD)))
	checkValid(t, b, prop)
}

func TestSDivMinIntByMinusOneUnconstrained(t *testing.T) {
	// The overflow case must not make the formula unsat globally:
	// there must exist a model with x=MinInt, y=-1 regardless of what
	// the division bits do.
	b := NewBuilder()
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	_ = b.Bin(OpSDiv, x, y) // bring the division constraints in scope
	d := b.Bin(OpSDiv, x, y)
	prop := b.BoolAnd(b.Eq(x, b.Const(8, 0x80)), b.Eq(y, b.Const(8, 0xFF)))
	prop = b.BoolAnd(prop, b.Eq(d, d))
	// Force the divider to be blasted by mentioning it.
	bl := NewBlaster(nil)
	bl.AssertTrue(prop)
	bl.blast(d)
	st, err := bl.S.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Sat {
		t.Fatal("MinInt/-1 inputs wrongly excluded by divider constraints")
	}
}

func TestShiftOverflowSemantics(t *testing.T) {
	// Shift by >= width yields 0 (lshr/shl); verify via solver at w=8.
	b := NewBuilder()
	x := b.Var(8, "x")
	sh := b.Bin(OpLShr, x, b.Const(8, 8))
	checkValid(t, b, b.Eq(sh, b.Const(8, 0)))
	shl := b.Bin(OpShl, x, b.Const(8, 200))
	checkValid(t, b, b.Eq(shl, b.Const(8, 0)))
	// At 64 bits the amount's top bit counts too: the shifter's ">= width"
	// test once computed 1<<63 as an int and skipped it
	// (FuzzBuilderVsReference found it).
	y, n := b.Var(64, "y"), b.Var(64, "n")
	huge := b.Cmp(OpUle, b.Const(64, 1<<63), n)
	checkValid(t, b, b.Implies(huge, b.Eq(b.Bin(OpLShr, y, n), b.Const(64, 0))))
	checkValid(t, b, b.Implies(huge, b.Eq(b.Bin(OpShl, y, n), b.Const(64, 0))))
	checkValid(t, b, b.Implies(huge, b.Eq(b.Bin(OpAShr, y, n), b.Bin(OpAShr, y, b.Const(64, 63)))))
}

func TestCastChain(t *testing.T) {
	// zext(trunc(x, 8), 32) == x & 0xFF  for 32-bit x.
	b := NewBuilder()
	x := b.Var(32, "x")
	lhs := b.ZExt(b.Trunc(x, 8), 32)
	rhs := b.Bin(OpAnd, x, b.Const(32, 0xFF))
	checkValid(t, b, b.Eq(lhs, rhs))
	// sext(trunc(x,8),32) differs from x in general.
	l2 := b.SExt(b.Trunc(x, 8), 32)
	res, err := checkSat(b.Not(b.Eq(l2, x)), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Error("sext(trunc(x)) == x should not be valid")
	}
}

func TestModelExtraction(t *testing.T) {
	b := NewBuilder()
	x := b.Var(16, "x")
	y := b.Var(16, "y")
	// x + y == 1000 and x == 2y
	prop := b.BoolAnd(
		b.Eq(b.Bin(OpAdd, x, y), b.Const(16, 1002)),
		b.Eq(x, b.Bin(OpMul, y, b.Const(16, 2))))
	m := checkSatisfiable(t, prop)
	if (m["x"]+m["y"])&0xFFFF != 1002 || m["x"] != (2*m["y"])&0xFFFF {
		t.Errorf("bad model %v", m)
	}
}

// Property: Eval is consistent with uint64 reference semantics.
func TestEvalAgainstReference(t *testing.T) {
	b := NewBuilder()
	x := b.Var(64, "x")
	y := b.Var(64, "y")
	sum := b.Bin(OpAdd, x, y)
	xmul := b.Bin(OpMul, x, y)
	check := func(a, c uint64) bool {
		env := map[string]uint64{"x": a, "y": c}
		s, ok1 := Eval(sum, env)
		m, ok2 := Eval(xmul, env)
		return ok1 && ok2 && s == a+c && m == a*c
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIteBlast(t *testing.T) {
	b := NewBuilder()
	c := b.Var(1, "c")
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	ite := b.Ite(c, x, y)
	// (c ∧ ite==x) ∨ (¬c ∧ ite==y) is valid.
	prop := b.BoolOr(
		b.BoolAnd(c, b.Eq(ite, x)),
		b.BoolAnd(b.Not(c), b.Eq(ite, y)))
	checkValid(t, b, prop)
}

func TestWidth64Operations(t *testing.T) {
	b := NewBuilder()
	x := b.Var(64, "x")
	// (x << 3) == x*8 at width 64.
	checkValid(t, b, b.Eq(
		b.Bin(OpShl, x, b.Const(64, 3)),
		b.Bin(OpMul, x, b.Const(64, 8))))
}

// BenchmarkBlastMulCommutativity proves x*y == y*x by bit-blasting.
// Width 7 keeps the UNSAT proof tractable for a CDCL solver —
// multiplier equivalence is a classically hard SAT family and the
// cost grows steeply with width (w=10 already takes minutes).
func BenchmarkBlastMulCommutativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := NewBuilder()
		x := bd.Var(7, "x")
		y := bd.Var(7, "y")
		prop := bd.Not(bd.Eq(bd.Bin(OpMul, x, y), bd.Bin(OpMul, y, x)))
		res, err := checkSat(prop, 0, nil)
		if err != nil || res.Status != sat.Unsat {
			b.Fatalf("%v %v", res.Status, err)
		}
	}
}

// BenchmarkBlastAddValid proves a 64-bit additive identity.
func BenchmarkBlastAddValid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := NewBuilder()
		x := bd.Var(64, "x")
		y := bd.Var(64, "y")
		lhs := bd.Bin(OpAdd, x, y)
		rhs := bd.Bin(OpAdd, y, x)
		res, err := checkSat(bd.Not(bd.Eq(lhs, rhs)), 0, nil)
		if err != nil || res.Status != sat.Unsat {
			b.Fatalf("%v %v", res.Status, err)
		}
	}
}

func ExampleSession() {
	b := NewBuilder()
	x := b.Var(8, "x")
	prop := b.Eq(b.Bin(OpMul, x, b.Const(8, 3)), b.Const(8, 30))
	res, _ := NewSession(0).Check(prop)
	fmt.Println(res.Status == sat.Sat, res.Model["x"])
	// Output: true 10
}

// numTerms returns the number of distinct terms created.
func (b *Builder) numTerms() int { return b.nextID }
