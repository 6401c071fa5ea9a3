// Package bv implements fixed-width bit-vector terms with
// hash-consing, constant folding, a concrete evaluator, and a
// bit-blasting translation to CNF solved by internal/sat. It is the
// theory layer of the Alive2-style translation validator.
package bv

import (
	"fmt"
	"math"
	"strings"
)

// Op is a bit-vector term operator.
type Op int

// Term operators. Comparison operators produce width-1 terms.
const (
	OpConst Op = iota
	OpVar
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl
	OpLShr
	OpAShr
	OpEq
	OpUlt
	OpUle
	OpSlt
	OpSle
	OpIte
	OpZExt
	OpSExt
	OpTrunc
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpSDiv: "sdiv", OpURem: "urem", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", OpNeg: "neg",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "eq", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	OpIte: "ite", OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
}

// String returns the operator mnemonic.
func (o Op) String() string { return opNames[o] }

// Term is an immutable bit-vector expression node. Terms are
// hash-consed per Builder: identical structures share one node, so
// pointer equality implies structural equality.
type Term struct {
	Op    Op
	Width int // result width in bits, 1..64
	Kids  []*Term
	Val   uint64 // OpConst only
	Name  string // OpVar only
	id    int
	own   [3]*Term // what Kids is a slice of
}

// ID returns the term's unique (per-Builder) identity.
func (t *Term) ID() int { return t.id }

// String renders the term as an s-expression (for diagnostics).
func (t *Term) String() string {
	switch t.Op {
	case OpConst:
		return fmt.Sprintf("%d:i%d", t.Val, t.Width)
	case OpVar:
		return fmt.Sprintf("%s:i%d", t.Name, t.Width)
	}
	parts := make([]string, len(t.Kids))
	for i, k := range t.Kids {
		parts[i] = k.String()
	}
	return fmt.Sprintf("(%s %s)", t.Op, strings.Join(parts, " "))
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

func signExtend(v uint64, w int) int64 {
	v &= mask(w)
	if w < 64 && v&(1<<uint(w-1)) != 0 {
		v |= ^mask(w)
	}
	return int64(v)
}

// Builder creates hash-consed terms with bottom-up constant folding.
// A lookup allocates nothing; only a miss takes a Term from the
// builder's current chunk. Ids follow creation order, which the
// commutative canonicalization below, the blaster's variable numbering
// and so every solver trajectory depend on.
type Builder struct {
	table  map[termKey]*Term
	nextID int
	// terms is the chunk new nodes are carved from. A full chunk is
	// left to the terms that point into it and replaced.
	terms []Term
}

// termKey is a term's structural identity, narrow so it is cheap to
// hash.
type termKey struct {
	op, width, nkids uint8
	kids             [3]int32
	val              uint64
	name             string
}

// NewBuilder returns an empty term builder.
func NewBuilder() *Builder {
	return &Builder{table: map[termKey]*Term{}}
}

// NumTerms returns the number of distinct terms created.
func (b *Builder) NumTerms() int { return b.nextID }

// intern returns the term with the given structure, creating it on
// first sight.
func (b *Builder) intern(op Op, w int, val uint64, name string, kids ...*Term) *Term {
	key := termKey{op: uint8(op), width: uint8(w), nkids: uint8(len(kids)), val: val, name: name}
	for i, k := range kids {
		key.kids[i] = int32(k.id)
	}
	if old, ok := b.table[key]; ok {
		return old
	}
	if b.nextID == math.MaxInt32 {
		panic("bv: term id exceeds 2^31") // wrapped in a termKey it would alias another term
	}
	// Chunks double from 32 terms to 1024, so a small verification
	// does not pay for a large one's.
	if len(b.terms) == cap(b.terms) {
		b.terms = make([]Term, 0, min(max(2*cap(b.terms), 32), 1024))
	}
	b.terms = append(b.terms, Term{Op: op, Width: w, Val: val, Name: name, id: b.nextID})
	b.nextID++
	t := &b.terms[len(b.terms)-1]
	if n := copy(t.own[:], kids); n > 0 {
		t.Kids = t.own[:n:n] // capped: an append to Kids reallocates
	}
	b.table[key] = t
	return t
}

// Const builds a constant of the given width.
func (b *Builder) Const(w int, v uint64) *Term {
	return b.intern(OpConst, w, v&mask(w), "")
}

// Var builds (or returns) the named variable of the given width.
func (b *Builder) Var(w int, name string) *Term {
	return b.intern(OpVar, w, 0, name)
}

// True and False are width-1 constants.
func (b *Builder) True() *Term { return b.Const(1, 1) }

// False is the width-1 zero constant.
func (b *Builder) False() *Term { return b.Const(1, 0) }

// Bin builds a binary arithmetic/bitwise/shift term.
func (b *Builder) Bin(op Op, x, y *Term) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d for %v", x.Width, y.Width, op))
	}
	w := x.Width
	// Canonicalize commutative operators by term identity so that
	// commuted applications hash-cons to one node. Downstream this is a
	// real solver win: source/target pairs that differ only by operand
	// order blast to identical literals and their equivalence condition
	// folds to a constant before any search.
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		if x.id > y.id {
			x, y = y, x
		}
	}
	if x.Op == OpConst && y.Op == OpConst {
		if v, ok := foldBin(op, x.Val, y.Val, w); ok {
			return b.Const(w, v)
		}
	}
	// Normalize subtraction of a constant into addition (exact under
	// wrapping semantics), so mixed add/sub constant chains share one
	// operator and reassociate below.
	if op == OpSub {
		if yc, ok := constOf(y); ok {
			return b.Bin(OpAdd, x, b.Const(w, -yc))
		}
	}
	// Reassociate constant chains: (z ⋄ c1) ⋄ c2 → z ⋄ (c1 ⋄ c2) for
	// associative ops. Long accumulator chains ("a += 24; a -= 8; ...")
	// collapse to a single operation, which turns their equivalence
	// proofs from carry-chain SAT searches into constant folds.
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		if c2, ok := constOf(y); ok && x.Op == op {
			if c1, ok := constOf(x.Kids[1]); ok {
				v, _ := foldBin(op, c1, c2, w)
				return b.Bin(op, x.Kids[0], b.Const(w, v))
			}
			if c1, ok := constOf(x.Kids[0]); ok {
				v, _ := foldBin(op, c1, c2, w)
				return b.Bin(op, x.Kids[1], b.Const(w, v))
			}
		}
		if c2, ok := constOf(x); ok && y.Op == op {
			if c1, ok := constOf(y.Kids[1]); ok {
				v, _ := foldBin(op, c1, c2, w)
				return b.Bin(op, y.Kids[0], b.Const(w, v))
			}
			if c1, ok := constOf(y.Kids[0]); ok {
				v, _ := foldBin(op, c1, c2, w)
				return b.Bin(op, y.Kids[1], b.Const(w, v))
			}
		}
	case OpShl:
		// (z << c1) << c2 → z << (c1+c2); foldBin already maps
		// amounts ≥ w to zero on both spellings.
		if c2, ok := constOf(y); ok && x.Op == OpShl {
			if c1, ok := constOf(x.Kids[1]); ok {
				sum := c1 + c2
				if sum < c1 || sum > uint64(w) { // overflow or ≥ w
					sum = uint64(w)
				}
				return b.Bin(OpShl, x.Kids[0], b.Const(w, sum))
			}
		}
	}
	if t := b.simplifyBin(op, x, y); t != nil {
		return t
	}
	return b.intern(op, w, 0, "", x, y)
}

func foldBin(op Op, a, c uint64, w int) (uint64, bool) {
	a &= mask(w)
	c &= mask(w)
	switch op {
	case OpAdd:
		return (a + c) & mask(w), true
	case OpSub:
		return (a - c) & mask(w), true
	case OpMul:
		return (a * c) & mask(w), true
	case OpUDiv:
		if c == 0 {
			return 0, false
		}
		return a / c, true
	case OpURem:
		if c == 0 {
			return 0, false
		}
		return a % c, true
	case OpSDiv:
		if c == 0 {
			return 0, false
		}
		sa, sc := signExtend(a, w), signExtend(c, w)
		if sc == -1 && sa == signExtend(1<<uint(w-1), w) {
			return 0, false
		}
		return uint64(sa/sc) & mask(w), true
	case OpSRem:
		if c == 0 {
			return 0, false
		}
		sa, sc := signExtend(a, w), signExtend(c, w)
		if sc == -1 && sa == signExtend(1<<uint(w-1), w) {
			return 0, false
		}
		return uint64(sa%sc) & mask(w), true
	case OpAnd:
		return a & c, true
	case OpOr:
		return a | c, true
	case OpXor:
		return a ^ c, true
	case OpShl:
		if c >= uint64(w) {
			return 0, true
		}
		return (a << c) & mask(w), true
	case OpLShr:
		if c >= uint64(w) {
			return 0, true
		}
		return a >> c, true
	case OpAShr:
		if c >= uint64(w) {
			c = uint64(w - 1)
		}
		return uint64(signExtend(a, w)>>c) & mask(w), true
	}
	return 0, false
}

// simplifyBin applies cheap local identities; returns nil if none apply.
func (b *Builder) simplifyBin(op Op, x, y *Term) *Term {
	yc, yIsC := constOf(y)
	xc, xIsC := constOf(x)
	switch op {
	case OpAdd:
		if yIsC && yc == 0 {
			return x
		}
		if xIsC && xc == 0 {
			return y
		}
	case OpSub:
		if yIsC && yc == 0 {
			return x
		}
		if x == y {
			return b.Const(x.Width, 0)
		}
	case OpMul:
		if yIsC && yc == 1 {
			return x
		}
		if xIsC && xc == 1 {
			return y
		}
		if (yIsC && yc == 0) || (xIsC && xc == 0) {
			return b.Const(x.Width, 0)
		}
	case OpAnd:
		if x == y {
			return x
		}
		if (yIsC && yc == 0) || (xIsC && xc == 0) {
			return b.Const(x.Width, 0)
		}
		if yIsC && yc == mask(x.Width) {
			return x
		}
		if xIsC && xc == mask(x.Width) {
			return y
		}
	case OpOr:
		if x == y {
			return x
		}
		if yIsC && yc == 0 {
			return x
		}
		if xIsC && xc == 0 {
			return y
		}
	case OpXor:
		if x == y {
			return b.Const(x.Width, 0)
		}
		if yIsC && yc == 0 {
			return x
		}
		if xIsC && xc == 0 {
			return y
		}
	case OpShl, OpLShr, OpAShr:
		if yIsC && yc == 0 {
			return x
		}
	}
	return nil
}

func constOf(t *Term) (uint64, bool) {
	if t.Op == OpConst {
		return t.Val, true
	}
	return 0, false
}

// Not builds bitwise complement.
func (b *Builder) Not(x *Term) *Term {
	if c, ok := constOf(x); ok {
		return b.Const(x.Width, ^c)
	}
	if x.Op == OpNot {
		return x.Kids[0]
	}
	return b.intern(OpNot, x.Width, 0, "", x)
}

// Neg builds two's-complement negation.
func (b *Builder) Neg(x *Term) *Term {
	if c, ok := constOf(x); ok {
		return b.Const(x.Width, -c)
	}
	return b.intern(OpNeg, x.Width, 0, "", x)
}

// Cmp builds a comparison term of width 1.
func (b *Builder) Cmp(op Op, x, y *Term) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("bv: cmp width mismatch %d vs %d", x.Width, y.Width))
	}
	// Equality is commutative: canonicalize like Bin does.
	if op == OpEq && x.id > y.id {
		x, y = y, x
	}
	if xc, ok1 := constOf(x); ok1 {
		if yc, ok2 := constOf(y); ok2 {
			w := x.Width
			var r bool
			switch op {
			case OpEq:
				r = xc == yc
			case OpUlt:
				r = xc < yc
			case OpUle:
				r = xc <= yc
			case OpSlt:
				r = signExtend(xc, w) < signExtend(yc, w)
			case OpSle:
				r = signExtend(xc, w) <= signExtend(yc, w)
			}
			if r {
				return b.True()
			}
			return b.False()
		}
	}
	if x == y {
		switch op {
		case OpEq, OpUle, OpSle:
			return b.True()
		case OpUlt, OpSlt:
			return b.False()
		}
	}
	return b.intern(op, 1, 0, "", x, y)
}

// Eq is shorthand for Cmp(OpEq, x, y).
func (b *Builder) Eq(x, y *Term) *Term { return b.Cmp(OpEq, x, y) }

// Ite builds if-then-else over a width-1 condition.
func (b *Builder) Ite(c, t, f *Term) *Term {
	if c.Width != 1 {
		panic("bv: ite condition must have width 1")
	}
	if t.Width != f.Width {
		panic("bv: ite arm width mismatch")
	}
	if cv, ok := constOf(c); ok {
		if cv == 1 {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	return b.intern(OpIte, t.Width, 0, "", c, t, f)
}

// ZExt zero-extends x to width w.
func (b *Builder) ZExt(x *Term, w int) *Term {
	if w == x.Width {
		return x
	}
	if c, ok := constOf(x); ok {
		return b.Const(w, c)
	}
	return b.intern(OpZExt, w, 0, "", x)
}

// SExt sign-extends x to width w.
func (b *Builder) SExt(x *Term, w int) *Term {
	if w == x.Width {
		return x
	}
	if c, ok := constOf(x); ok {
		return b.Const(w, uint64(signExtend(c, x.Width)))
	}
	return b.intern(OpSExt, w, 0, "", x)
}

// Trunc truncates x to width w.
func (b *Builder) Trunc(x *Term, w int) *Term {
	if w == x.Width {
		return x
	}
	if c, ok := constOf(x); ok {
		return b.Const(w, c)
	}
	return b.intern(OpTrunc, w, 0, "", x)
}

// Bool connectives on width-1 terms.

// BoolAnd returns x ∧ y on width-1 terms.
func (b *Builder) BoolAnd(x, y *Term) *Term { return b.Bin(OpAnd, x, y) }

// BoolOr returns x ∨ y on width-1 terms.
func (b *Builder) BoolOr(x, y *Term) *Term { return b.Bin(OpOr, x, y) }

// BoolNot returns ¬x on a width-1 term.
func (b *Builder) BoolNot(x *Term) *Term { return b.Not(x) }

// Implies returns x → y on width-1 terms.
func (b *Builder) Implies(x, y *Term) *Term { return b.BoolOr(b.Not(x), y) }

// Eval evaluates a term under an assignment of variable values
// (by name). Division by zero returns (0, false). Evaluation is
// memoized over the hash-consed DAG (by Term.ID()), so heavily shared
// subexpressions are computed once. Eval builds its memo per call; a
// Session keeps one across the many evaluations of its pre-pass.
func Eval(t *Term, env map[string]uint64) (uint64, bool) {
	var m evalMemo
	return m.run(t, env)
}

// evalMemo is a dense evaluation memo indexed by term id. A slot
// holds a result of the current evaluation only when its stamp equals
// gen, so starting the next one is an increment, not a sweep.
type evalMemo struct {
	slots []evalSlot
	gen   uint32
}

type evalSlot struct {
	v   uint64
	gen uint32
	ok  bool
}

// run evaluates t under env, starting from an empty memo. A term's
// operands were interned before it, so t's id bounds every id under
// it; the slots grow with the builder as later terms arrive.
func (m *evalMemo) run(t *Term, env map[string]uint64) (uint64, bool) {
	if t.id >= len(m.slots) {
		m.slots = append(m.slots, make([]evalSlot, t.id+1-len(m.slots))...)
	}
	if m.gen++; m.gen == 0 { // wrapped: stamps 2^32 evaluations old would read as current
		clear(m.slots)
		m.gen = 1
	}
	return m.eval(t, env)
}

func (m *evalMemo) eval(t *Term, env map[string]uint64) (uint64, bool) {
	if r := &m.slots[t.id]; r.gen == m.gen {
		return r.v, r.ok
	}
	v, ok := m.evalNode(t, env)
	m.slots[t.id] = evalSlot{v: v, gen: m.gen, ok: ok}
	return v, ok
}

func (m *evalMemo) evalNode(t *Term, env map[string]uint64) (uint64, bool) {
	switch t.Op {
	case OpConst:
		return t.Val, true
	case OpVar:
		v, ok := env[t.Name]
		if !ok {
			return 0, true // unconstrained variables default to 0
		}
		return v & mask(t.Width), true
	case OpNot:
		v, ok := m.eval(t.Kids[0], env)
		return ^v & mask(t.Width), ok
	case OpNeg:
		v, ok := m.eval(t.Kids[0], env)
		return -v & mask(t.Width), ok
	case OpIte:
		c, ok := m.eval(t.Kids[0], env)
		if !ok {
			return 0, false
		}
		if c&1 == 1 {
			return m.eval(t.Kids[1], env)
		}
		return m.eval(t.Kids[2], env)
	case OpZExt:
		v, ok := m.eval(t.Kids[0], env)
		return v & mask(t.Kids[0].Width), ok
	case OpSExt:
		v, ok := m.eval(t.Kids[0], env)
		return uint64(signExtend(v, t.Kids[0].Width)) & mask(t.Width), ok
	case OpTrunc:
		v, ok := m.eval(t.Kids[0], env)
		return v & mask(t.Width), ok
	case OpEq, OpUlt, OpUle, OpSlt, OpSle:
		x, ok1 := m.eval(t.Kids[0], env)
		y, ok2 := m.eval(t.Kids[1], env)
		if !ok1 || !ok2 {
			return 0, false
		}
		w := t.Kids[0].Width
		var r bool
		switch t.Op {
		case OpEq:
			r = x&mask(w) == y&mask(w)
		case OpUlt:
			r = x&mask(w) < y&mask(w)
		case OpUle:
			r = x&mask(w) <= y&mask(w)
		case OpSlt:
			r = signExtend(x, w) < signExtend(y, w)
		case OpSle:
			r = signExtend(x, w) <= signExtend(y, w)
		}
		if r {
			return 1, true
		}
		return 0, true
	}
	// Binary ops.
	x, ok1 := m.eval(t.Kids[0], env)
	y, ok2 := m.eval(t.Kids[1], env)
	if !ok1 || !ok2 {
		return 0, false
	}
	v, ok := foldBin(t.Op, x, y, t.Width)
	return v, ok
}
