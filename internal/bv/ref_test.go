package bv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"veriopt/internal/sat"
)

// The Builder judged from outside. A refNode is an expression exactly as
// a caller wrote it: build hands it to the Builder's constructors, which
// fold and rewrite as they see fit, and eval computes what it means with
// an evaluator that shares nothing with foldBin or Eval — its own
// masking, sign extension, division and shift-amount rules. Wherever the
// written expression is defined, the term the Builder made of it must
// evaluate, defined, to the same value: a rewrite may give an undefined
// expression a value, never take one away.
type refNode struct {
	op   Op
	w    int
	kids [3]*refNode
	val  uint64 // OpConst
	name string // OpVar
}

func refOnes(w int) uint64 { return ^uint64(0) >> uint(64-w) }

func refSigned(v uint64, w int) int64 {
	s := uint(64 - w)
	return int64(v<<s) >> s
}

func refBool(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// eval is strict except in ite, which looks at the arm it selects only.
func (n *refNode) eval(env map[string]uint64) (uint64, bool) {
	switch n.op {
	case OpConst:
		return n.val & refOnes(n.w), true
	case OpVar:
		return env[n.name] & refOnes(n.w), true
	case OpIte:
		c, ok := n.kids[0].eval(env)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return n.kids[1].eval(env)
		}
		return n.kids[2].eval(env)
	}
	a, ok := n.kids[0].eval(env)
	if !ok {
		return 0, false
	}
	w := n.kids[0].w // the operands' width: a comparison's own is 1
	ones := refOnes(n.w)
	switch n.op {
	case OpNot:
		return ^a & ones, true
	case OpNeg:
		return (^a + 1) & ones, true
	case OpZExt:
		return a, true
	case OpSExt:
		return uint64(refSigned(a, w)) & ones, true
	case OpTrunc:
		return a & ones, true
	}
	b, ok := n.kids[1].eval(env)
	if !ok {
		return 0, false
	}
	sa, sb := refSigned(a, w), refSigned(b, w)
	switch n.op {
	case OpAdd:
		return (a + b) & ones, true
	case OpSub:
		return (a + ^b + 1) & ones, true
	case OpMul:
		return (a * b) & ones, true
	case OpUDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpURem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpSDiv, OpSRem:
		// Undefined where LLVM's are: a zero divisor, and the one
		// quotient that does not fit.
		if sb == 0 || (sb == -1 && sa == int64(-1)<<uint(w-1)) {
			return 0, false
		}
		if n.op == OpSDiv {
			return uint64(sa/sb) & ones, true
		}
		return uint64(sa%sb) & ones, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		if b >= uint64(w) {
			return 0, true
		}
		return a << b & ones, true
	case OpLShr:
		if b >= uint64(w) {
			return 0, true
		}
		return a >> b, true
	case OpAShr:
		if b >= uint64(w) { // every bit becomes the sign
			return uint64(sa>>63) & ones, true
		}
		return uint64(sa>>b) & ones, true
	case OpEq:
		return refBool(a == b), true
	case OpUlt:
		return refBool(a < b), true
	case OpUle:
		return refBool(a <= b), true
	case OpSlt:
		return refBool(sa < sb), true
	case OpSle:
		return refBool(sa <= sb), true
	}
	panic("ref: no rule for " + n.op.String())
}

// build makes the Builder's term for n through the public constructors,
// operands left to right.
func (n *refNode) build(b *Builder) *Term {
	switch n.op {
	case OpConst:
		return b.Const(n.w, n.val)
	case OpVar:
		return b.Var(n.w, n.name)
	case OpNot:
		return b.Not(n.kids[0].build(b))
	case OpNeg:
		return b.Neg(n.kids[0].build(b))
	case OpZExt:
		return b.ZExt(n.kids[0].build(b), n.w)
	case OpSExt:
		return b.SExt(n.kids[0].build(b), n.w)
	case OpTrunc:
		return b.Trunc(n.kids[0].build(b), n.w)
	case OpIte:
		c := n.kids[0].build(b)
		t := n.kids[1].build(b)
		return b.Ite(c, t, n.kids[2].build(b))
	case OpEq, OpUlt, OpUle, OpSlt, OpSle:
		x := n.kids[0].build(b)
		return b.Cmp(n.op, x, n.kids[1].build(b))
	}
	x := n.kids[0].build(b)
	return b.Bin(n.op, x, n.kids[1].build(b))
}

func (n *refNode) String() string {
	switch n.op {
	case OpConst:
		return fmt.Sprintf("%d:i%d", n.val, n.w)
	case OpVar:
		return n.name
	}
	s := "(" + n.op.String()
	if n.op == OpZExt || n.op == OpSExt || n.op == OpTrunc {
		s += fmt.Sprintf(".i%d", n.w)
	}
	for _, k := range n.kids {
		if k != nil {
			s += " " + k.String()
		}
	}
	return s + ")"
}

func refConst(w int, v uint64) *refNode  { return &refNode{op: OpConst, w: w, val: v} }
func refVar(w int, name string) *refNode { return &refNode{op: OpVar, w: w, name: name} }
func refUn(op Op, w int, a *refNode) *refNode {
	return &refNode{op: op, w: w, kids: [3]*refNode{a}}
}
func refBin(op Op, a, b *refNode) *refNode {
	w := a.w
	if op >= OpEq && op <= OpSle {
		w = 1
	}
	return &refNode{op: op, w: w, kids: [3]*refNode{a, b}}
}
func refIte(c, t, f *refNode) *refNode {
	return &refNode{op: OpIte, w: t.w, kids: [3]*refNode{c, t, f}}
}

var (
	refBinOps = []Op{OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
	refCmpOps = []Op{OpEq, OpUlt, OpUle, OpSlt, OpSle}
)

// refForm makes one width-w value of one or two width-w operands, so
// forms nest freely while the comparisons, selects and casts inside them
// stay well-typed.
type refForm struct {
	name  string
	unary bool
	mk    func(a, b *refNode) *refNode
}

// refForms returns the 13 binary operators first, then every other
// constructor wrapped to width w: a comparison widened both ways, a
// select on a comparison of its own arms, Not, Neg, each narrowing cast
// widened back both ways, and two computations carried out wider and
// truncated (the shape of alive's overflow conditions).
func refForms(w int) (binary, other []refForm) {
	for _, op := range refBinOps {
		binary = append(binary, refForm{name: op.String(), mk: func(a, b *refNode) *refNode { return refBin(op, a, b) }})
	}
	for _, op := range refCmpOps {
		other = append(other,
			refForm{name: "zext-" + op.String(), mk: func(a, b *refNode) *refNode { return refUn(OpZExt, w, refBin(op, a, b)) }},
			refForm{name: "ite-" + op.String(), mk: func(a, b *refNode) *refNode { return refIte(refBin(op, a, b), a, b) }})
	}
	for _, op := range []Op{OpEq, OpSlt} {
		other = append(other, refForm{name: "sext-" + op.String(), mk: func(a, b *refNode) *refNode { return refUn(OpSExt, w, refBin(op, a, b)) }})
	}
	other = append(other,
		refForm{name: "not", unary: true, mk: func(a, _ *refNode) *refNode { return refUn(OpNot, w, a) }},
		refForm{name: "neg", unary: true, mk: func(a, _ *refNode) *refNode { return refUn(OpNeg, w, a) }},
		refForm{name: "wide-add", mk: func(a, b *refNode) *refNode {
			return refUn(OpTrunc, w, refBin(OpAdd, refUn(OpZExt, w+1, a), refUn(OpSExt, w+1, b)))
		}},
		refForm{name: "mul-high", mk: func(a, b *refNode) *refNode {
			wide := refBin(OpMul, refUn(OpZExt, 2*w, a), refUn(OpZExt, 2*w, b))
			return refUn(OpTrunc, w, refBin(OpLShr, wide, refConst(2*w, uint64(w))))
		}})
	for k := 1; k < w; k++ {
		other = append(other,
			refForm{name: fmt.Sprintf("zext-trunc%d", k), unary: true, mk: func(a, _ *refNode) *refNode { return refUn(OpZExt, w, refUn(OpTrunc, k, a)) }},
			refForm{name: fmt.Sprintf("sext-trunc%d", k), unary: true, mk: func(a, _ *refNode) *refNode { return refUn(OpSExt, w, refUn(OpTrunc, k, a)) }})
	}
	return binary, other
}

// refChecker compares one written expression with the Builder's term for
// it, on a fresh Builder each time so that term ids — which the
// Builder's canonical operand order reads — follow the order the
// expression names its leaves in.
type refChecker struct {
	memo  evalMemo
	trees int
	evals int
}

// check evaluates n both ways under env and returns a description of
// the disagreement, if any.
func (c *refChecker) check(n *refNode, t *Term, env map[string]uint64) string {
	c.evals++
	want, defined := n.eval(env)
	if !defined {
		return ""
	}
	got, ok := c.memo.run(t, env)
	if !ok || got != want {
		return fmt.Sprintf("%v under %v is %d; the Builder's term %v evaluates to %d (defined %v)", n, env, want, t, got, ok)
	}
	return ""
}

// exhaust checks n on every assignment of x and y at n's leaf width w.
func (c *refChecker) exhaust(t *testing.T, w int, n *refNode) {
	c.trees++
	term := n.build(NewBuilder())
	if term.Width != n.w {
		t.Fatalf("%v: built at width %d, written at %d", n, term.Width, n.w)
	}
	env := map[string]uint64{}
	for x := uint64(0); x <= refOnes(w); x++ {
		env["x"] = x
		for y := uint64(0); y <= refOnes(w); y++ {
			env["y"] = y
			if msg := c.check(n, term, env); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// TestBuilderMatchesReferenceExhaustive: every expression of depth at
// most two, in both shapes (the inner operation on the left and on the
// right), over leaves x, y and every constant of the width, on every
// assignment. From width 3 the forms that are not plain binary operators
// are paired with binary operators only; width 4, where the binary
// operators alone are half a billion evaluations, keeps of those forms
// the unary ones and runs outside -short. Each inner form, with the
// outer forms it is paired with, is a parallel subtest on its own
// checker; the width's totals are logged once all of them are done.
func TestBuilderMatchesReferenceExhaustive(t *testing.T) {
	widths := []int{1, 2, 3, 4}
	if testing.Short() {
		widths = widths[:3]
	}
	for _, w := range widths {
		t.Run(fmt.Sprintf("i%d", w), func(t *testing.T) {
			leaves := []*refNode{refVar(w, "x"), refVar(w, "y")}
			for v := uint64(0); v <= refOnes(w); v++ {
				leaves = append(leaves, refConst(w, v))
			}
			binary, other := refForms(w)
			if w == 4 {
				other = slices.DeleteFunc(other, func(f refForm) bool { return !f.unary })
			}
			type part struct {
				name string
				f1   refForm
				f2s  []refForm
			}
			var parts []part
			nest := func(f1s, f2s []refForm, outer string) {
				for _, f1 := range f1s {
					parts = append(parts, part{f1.name + "." + outer, f1, f2s})
				}
			}
			nest(binary, binary, "binary")
			nest(binary, other, "other")
			nest(other, binary, "binary")
			if w < 3 {
				nest(other, other, "other")
			}
			checkers := make([]refChecker, len(parts))
			t.Run("forms", func(t *testing.T) {
				for i, p := range parts {
					t.Run(p.name, func(t *testing.T) {
						t.Parallel()
						c := &checkers[i]
						outer := func(f2 refForm, inner *refNode) {
							if f2.unary {
								c.exhaust(t, w, f2.mk(inner, nil))
								return
							}
							for _, l3 := range leaves {
								c.exhaust(t, w, f2.mk(inner, l3))
								c.exhaust(t, w, f2.mk(l3, inner))
							}
						}
						for _, l1 := range leaves {
							if p.f1.unary {
								for _, f2 := range p.f2s {
									outer(f2, p.f1.mk(l1, nil))
								}
								continue
							}
							for _, l2 := range leaves {
								inner := p.f1.mk(l1, l2)
								c.exhaust(t, w, inner)
								for _, f2 := range p.f2s {
									outer(f2, inner)
								}
							}
						}
					})
				}
			})
			var trees, evals int
			for _, c := range checkers {
				trees, evals = trees+c.trees, evals+c.evals
			}
			t.Logf("%d expressions, %d evaluations", trees, evals)
		})
	}
}

// refRandom draws an expression of width w and depth at most d over x,
// y and z from rng: every operator, constants biased to the boundaries
// and to powers of two, where the Builder's rewrites live.
func refRandom(rng *rand.Rand, w, d int) *refNode {
	if d <= 0 || rng.Intn(5) == 0 {
		if rng.Intn(3) != 0 {
			return refVar(w, []string{"x", "y", "z"}[rng.Intn(3)])
		}
		switch rng.Intn(6) {
		case 0:
			return refConst(w, 0)
		case 1:
			return refConst(w, refOnes(w))
		case 2:
			return refConst(w, uint64(1)<<uint(rng.Intn(w)))
		case 3:
			return refConst(w, uint64(rng.Intn(4)))
		case 4:
			return refConst(w, ^uint64(0)<<uint(rng.Intn(w))&refOnes(w))
		}
		return refConst(w, rng.Uint64()&refOnes(w))
	}
	sub := func() *refNode { return refRandom(rng, w, d-1) }
	switch k := rng.Intn(16); k {
	case 0:
		return refUn(OpNot, w, sub())
	case 1:
		return refUn(OpNeg, w, sub())
	case 2:
		return refUn([]Op{OpZExt, OpSExt}[rng.Intn(2)], w, refBin(refCmpOps[rng.Intn(len(refCmpOps))], sub(), sub()))
	case 3:
		return refIte(refBin(refCmpOps[rng.Intn(len(refCmpOps))], sub(), sub()), sub(), sub())
	case 4:
		if w == 1 {
			return sub()
		}
		return refUn([]Op{OpZExt, OpSExt}[rng.Intn(2)], w, refUn(OpTrunc, 1+rng.Intn(w-1), sub()))
	case 5:
		if w == 64 {
			return sub()
		}
		wide := w + 1 + rng.Intn(64-w)
		op := []Op{OpAdd, OpSub, OpMul, OpShl}[rng.Intn(4)]
		return refUn(OpTrunc, w, refBin(op, refUn(OpSExt, wide, sub()), refUn(OpZExt, wide, sub())))
	}
	return refBin(refBinOps[rng.Intn(len(refBinOps))], sub(), sub())
}

// builderVsReference draws one expression and checks the Builder's term
// for it two ways: under Eval on boundary and random environments, and
// through the blaster — with the variables pinned to an environment the
// expression is defined on, "the term differs from the reference value"
// must be unsatisfiable, so the circuits the rewrites emit are compared
// with the reference too. A pinned query the solver does not finish
// within the budget is skipped.
func builderVsReference(t testing.TB, rng *rand.Rand) {
	t.Helper()
	w := 1 + rng.Intn(64)
	if rng.Intn(2) == 0 {
		w = []int{1, 2, 3, 4, 8, 16, 32, 64}[rng.Intn(8)]
	}
	n := refRandom(rng, w, 1+rng.Intn(6))
	b := NewBuilder()
	term := n.build(b)
	var c refChecker
	bounds := []uint64{0, 1, 2, refOnes(w), refOnes(w) >> 1, uint64(1) << uint(w-1), refOnes(w) - 1}
	pinned := false
	for i := 0; i < 24; i++ {
		env := map[string]uint64{}
		for _, name := range []string{"x", "y", "z"} {
			if i < 12 {
				env[name] = bounds[rng.Intn(len(bounds))]
			} else {
				env[name] = rng.Uint64() >> uint(rng.Intn(64)) & refOnes(w)
			}
		}
		if msg := c.check(n, term, env); msg != "" {
			t.Fatal(msg)
		}
		want, defined := n.eval(env)
		if !defined || pinned || wideDivider(term, map[*Term]bool{}) {
			continue
		}
		pinned = true
		cond := b.Not(b.Eq(term, b.Const(w, want)))
		for name, v := range env {
			cond = b.BoolAnd(cond, b.Eq(b.Var(w, name), b.Const(w, v)))
		}
		res, err := checkSat(cond, 2000)
		if err == nil && res.Status != sat.Unsat {
			t.Fatalf("%v under %v is %d; the blasted term %v can differ (model %v)", n, env, want, term, res.Model)
		}
	}
}

// wideDivider reports whether t holds a division the Builder left in
// place at more than 16 bits: its circuit multiplies at twice the width,
// and blasting a few of those costs more than the rest of the run.
func wideDivider(t *Term, seen map[*Term]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if t.Op >= OpUDiv && t.Op <= OpSRem && t.Width > 16 {
		return true
	}
	for _, k := range t.Kids {
		if wideDivider(k, seen) {
			return true
		}
	}
	return false
}

func TestBuilderVsReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		builderVsReference(t, rng)
	}
}

// FuzzBuilderVsReference is builderVsReference as a native fuzz target
// (make fuzz-smoke), the fuzzer's bytes choosing width, shape and
// constants.
func FuzzBuilderVsReference(f *testing.F) {
	seed := rand.New(rand.NewSource(24))
	for i := 0; i < 8; i++ {
		data := make([]byte, 512)
		seed.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		builderVsReference(t, rand.New(&byteSource{data, rand.NewSource(int64(len(data)))}))
	})
}
