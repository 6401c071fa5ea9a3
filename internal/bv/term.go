// Package bv implements fixed-width bit-vector terms with
// hash-consing, constant folding, a concrete evaluator, and a
// bit-blasting translation to CNF solved by internal/sat. It is the
// theory layer of the Alive2-style translation validator.
package bv

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Op is a bit-vector term operator.
type Op int

// Term operators. Comparison operators produce width-1 terms.
const (
	OpConst Op = iota
	opVar
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
	opNeg
	OpShl
	OpLShr
	OpAShr
	opEq
	OpUlt
	OpUle
	OpSlt
	OpSle
	opIte
	opZExt
	opSExt
	opTrunc
)

var opNames = map[Op]string{
	OpConst: "const", opVar: "var", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpSDiv: "sdiv", OpURem: "urem", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", opNeg: "neg",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	opEq: "eq", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	opIte: "ite", opZExt: "zext", opSExt: "sext", opTrunc: "trunc",
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
	name  string // opVar only
	id    int
	own   [3]*Term // what Kids is a slice of
}

// String renders the term as an s-expression (for diagnostics).
func (t *Term) String() string {
	switch t.Op {
	case OpConst:
		return fmt.Sprintf("%d:i%d", t.Val, t.Width)
	case opVar:
		return fmt.Sprintf("%s:i%d", t.name, t.Width)
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
//
// The zero value is ready to use. The first table and the first chunk
// are arrays inside the Builder, so a verification that embeds one holds
// its terms in its own allocation; a Builder must not be copied once it
// has made a term.
type Builder struct {
	// table holds every term, open-addressed: a power of two in size,
	// probed linearly from the term's hash, at most three quarters full.
	table  []*Term
	nextID int
	// terms is the chunk new nodes are carved from. A full chunk is
	// left to the terms that point into it and replaced.
	terms []Term
	// hits counts, per normal-form rule, the constructor calls it
	// rewrote.
	hits [numRules]int
	// small and first are the first table and the first chunk: the
	// table grows past 48 terms, the chunk past 32 (search-cold: p99 27).
	small [64]*Term
	first [32]Term
}

// The rules of the normal form (DESIGN.md, "The normal form"), as
// indices into Builder.hits.
const (
	ruleSub        = iota // x - y built as x + neg y
	ruleNegNeg            // a negation met a negation
	ruleMerge             // like terms of a sum met (x - x, x + x)
	ruleScale             // a constant factor or shift met another, or a sum
	ruleEqConst           // x + c1 == c2 became x == c2 - c1
	ruleXorCancel         // (a ^ b) ^ b
	ruleAbsorb            // (a | b) & a, (a & b) | a
	ruleComplement        // x & ~x, x | ~x
	ruleMulPow2           // x * 2^k as x << k
	ruleUDivPow2          // x udiv 2^k as x lshr k
	ruleURemPow2          // x urem 2^k as x & (2^k - 1)
	ruleSDivPow2          // x sdiv 2^k as biased ashr
	ruleWalk              // not a rule: the nodes visited reading sums
	numRules
)

var ruleNames = [numRules]string{"sub", "neg-neg", "merge", "scale", "eq-const",
	"xor-cancel", "absorb", "complement", "mul-pow2", "udiv-pow2", "urem-pow2", "sdiv-pow2", "walk"}

// RuleHits reports how many constructor calls each normal-form rule
// rewrote, by rule name, and under "walk" the work all of them did;
// rules that never fired are absent.
func (b *Builder) RuleHits() map[string]int {
	m := map[string]int{}
	for r, n := range b.hits {
		if n > 0 {
			m[ruleNames[r]] = n
		}
	}
	return m
}

// NewBuilder returns an empty term builder.
func NewBuilder() *Builder { return new(Builder) }

// intern returns the term with the given structure, creating it on
// first sight.
func (b *Builder) intern(op Op, w int, val uint64, name string, kids ...*Term) *Term {
	if b.table == nil {
		b.table = b.small[:]
	}
	at := b.slot(op, w, val, name, kids)
	if old := b.table[at]; old != nil {
		return old
	}
	if b.nextID == math.MaxInt32 {
		panic("bv: term id exceeds 2^31") // the solver's literals are int32; no real query comes near
	}
	// Chunks double from the first's 32 terms to 1024, so a small
	// verification does not pay for a large one's.
	if len(b.terms) == cap(b.terms) {
		if b.nextID == 0 {
			b.terms = b.first[:0]
		} else {
			b.terms = make([]Term, 0, min(2*cap(b.terms), 1024))
		}
	}
	b.terms = append(b.terms, Term{Op: op, Width: w, Val: val, name: name, id: b.nextID})
	b.nextID++
	t := &b.terms[len(b.terms)-1]
	if n := copy(t.own[:], kids); n > 0 {
		t.Kids = t.own[:n:n] // capped: an append to Kids reallocates
	}
	if b.table[at] = t; 4*b.nextID > 3*len(b.table) {
		b.grow()
	}
	return t
}

// slot is where the term with the given structure sits in the table,
// or the empty slot where it would go.
func (b *Builder) slot(op Op, w int, val uint64, name string, kids []*Term) int {
	mask := len(b.table) - 1
	for i := int(hashTerm(op, w, val, name, kids)) & mask; ; i = (i + 1) & mask {
		t := b.table[i]
		if t == nil || t.Op == op && t.Width == w && t.Val == val && t.name == name && slices.Equal(t.Kids, kids) {
			return i
		}
	}
}

// grow doubles the table and places every term in it again.
func (b *Builder) grow() {
	old := b.table
	b.table = make([]*Term, 2*len(old))
	for _, t := range old {
		if t != nil {
			b.table[b.slot(t.Op, t.Width, t.Val, t.name, t.Kids)] = t
		}
	}
}

// hashTerm mixes a term's structure, its operands by id, into the
// probe start.
func hashTerm(op Op, w int, val uint64, name string, kids []*Term) uint64 {
	h := mix(uint64(op) | uint64(w)<<8 | uint64(len(kids))<<16 ^ val)
	for _, k := range kids {
		h = mix(h ^ uint64(k.id))
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return mix(h)
}

// mix is MurmurHash3's 64-bit finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// Const builds a constant of the given width.
func (b *Builder) Const(w int, v uint64) *Term {
	return b.intern(OpConst, w, v&mask(w), "")
}

// Var builds (or returns) the named variable of the given width.
func (b *Builder) Var(w int, name string) *Term {
	return b.intern(opVar, w, 0, name)
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
	switch op {
	case OpAdd, OpSub, OpMul, OpShl:
		if x.Op == OpConst && (op == OpAdd || op == OpMul) {
			x, y = y, x // a sum or product keeps its constant last
		}
		if t := b.linear(op, x, y); t != nil {
			return t
		}
		// Kept as built, in the one operator each shape has: x - y is
		// x + neg y, and x * 2^k is x << k.
		c, yIsC := constOf(y)
		switch {
		case op == OpSub && yIsC:
			op, y = OpAdd, b.Const(w, -c)
		case op == OpSub:
			b.hits[ruleSub]++
			op, y = OpAdd, b.intern(opNeg, w, 0, "", y)
			if x.Op == OpConst {
				x, y = y, x
			}
		case op == OpShl && yIsC && c >= uint64(w):
			return b.Const(w, 0)
		case op == OpMul && yIsC && c&(c-1) == 0 && c > 1:
			b.hits[ruleMulPow2]++
			op, y = OpShl, b.Const(w, uint64(bits.TrailingZeros64(c)))
		}
	case OpUDiv, OpURem, OpSDiv:
		// Division by a power of two is total, so the shift that
		// replaces it loses no definedness. sdiv keeps its divider for 1
		// (k = 0), and for the sign bit, which is -2^(w-1).
		c, ok := constOf(y)
		if !ok || c&(c-1) != 0 || c == 0 {
			break
		}
		k := bits.TrailingZeros64(c)
		switch {
		case op == OpUDiv:
			b.hits[ruleUDivPow2]++
			return b.Bin(OpLShr, x, b.Const(w, uint64(k)))
		case op == OpURem:
			b.hits[ruleURemPow2]++
			return b.Bin(OpAnd, x, b.Const(w, c-1))
		case k > 0 && k < w-1:
			// Round toward zero: add 2^k - 1 to a negative dividend.
			b.hits[ruleSDivPow2]++
			bias := b.Bin(OpLShr, b.Bin(OpAShr, x, b.Const(w, uint64(w-1))), b.Const(w, uint64(w-k)))
			return b.Bin(OpAShr, b.Bin(OpAdd, x, bias), b.Const(w, uint64(k)))
		}
	case OpAnd, OpOr, OpXor:
		// Reassociate constant chains: (z ⋄ c1) ⋄ c2 → z ⋄ (c1 ⋄ c2).
		// (Sums and products by constants do so in linear.)
		for _, p := range [2][2]*Term{{x, y}, {y, x}} {
			if c2, ok := constOf(p[1]); ok && p[0].Op == op {
				for i, k := range p[0].Kids {
					if c1, ok := constOf(k); ok {
						v, _ := foldBin(op, c1, c2, w)
						return b.Bin(op, p[0].Kids[1-i], b.Const(w, v))
					}
				}
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
		if isNotOf(x, y) || isNotOf(y, x) {
			b.hits[ruleComplement]++
			return b.Const(x.Width, 0)
		}
		if t := absorbed(OpOr, x, y); t != nil {
			b.hits[ruleAbsorb]++
			return t
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
		if isNotOf(x, y) || isNotOf(y, x) {
			b.hits[ruleComplement]++
			return b.Const(x.Width, mask(x.Width))
		}
		if t := absorbed(OpAnd, x, y); t != nil {
			b.hits[ruleAbsorb]++
			return t
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
		// (a ^ b) ^ b is a, one level deep.
		for _, p := range [2][2]*Term{{x, y}, {y, x}} {
			if p[0].Op == OpXor && (p[0].Kids[0] == p[1] || p[0].Kids[1] == p[1]) {
				b.hits[ruleXorCancel]++
				if p[0].Kids[0] == p[1] {
					return p[0].Kids[1]
				}
				return p[0].Kids[0]
			}
		}
	case OpShl, OpLShr, OpAShr:
		if yIsC && yc == 0 {
			return x
		}
	}
	return nil
}

// isNotOf reports whether t is the complement of u.
func isNotOf(t, u *Term) bool { return t.Op == OpNot && t.Kids[0] == u }

// absorbed returns the operand that absorbs the other: with inner = or
// it answers (a | b) & a, with inner = and it answers (a & b) | a.
func absorbed(inner Op, x, y *Term) *Term {
	if x.Op == inner && (x.Kids[0] == y || x.Kids[1] == y) {
		return y
	}
	if y.Op == inner && (y.Kids[0] == x || y.Kids[1] == x) {
		return x
	}
	return nil
}

// sumWindow bounds the additive normal form: a sum of more distinct
// atoms than this is left as built, so one constructor call costs O(1)
// whatever it is handed.
const sumWindow = 8

// linSum is a sum of coefficient·atom monomials over at most sumWindow
// distinct atoms, ordered by atom id, plus a constant, modulo 2^w. An
// atom is any term that is not itself a constant, a sum, a negation, or
// a shift or product by a constant.
type linSum struct {
	atom  [sumWindow]*Term
	coef  [sumWindow]uint64
	n     int
	k     uint64
	steps int
	// consts counts the constants met; folded is set once the sum is
	// shorter than the expression it was read off — like terms met, a
	// negation met a negation, a scale met a scale, two constants met.
	consts int
	folded bool
}

// addScaled adds coef·t to s, looking through the additive operators; it
// reports false when s would leave the window.
func (b *Builder) addScaled(s *linSum, t *Term, coef uint64) bool {
	b.hits[ruleWalk]++
	if s.steps++; s.steps > 8*sumWindow {
		return false
	}
	switch t.Op {
	case OpConst:
		if s.consts++; s.consts > 1 {
			s.folded = true
		}
		s.k += coef * t.Val
		return true
	case OpAdd:
		b.scaleMet(s, t.Width, coef)
		return b.addScaled(s, t.Kids[0], coef) && b.addScaled(s, t.Kids[1], coef)
	case opNeg:
		if coef&mask(t.Width) == mask(t.Width) {
			b.hits[ruleNegNeg]++
			s.folded = true
		}
		return b.addScaled(s, t.Kids[0], -coef)
	case OpShl:
		if c, ok := constOf(t.Kids[1]); ok && c < uint64(t.Width) {
			b.scaleMet(s, t.Width, coef)
			return b.addScaled(s, t.Kids[0], coef<<c)
		}
	case OpMul:
		for i, k := range t.Kids {
			if c, ok := constOf(k); ok {
				b.scaleMet(s, t.Width, coef)
				return b.addScaled(s, t.Kids[1-i], coef*c)
			}
		}
	}
	i := 0
	for i < s.n && s.atom[i].id < t.id {
		i++
	}
	if i < s.n && s.atom[i] == t {
		b.hits[ruleMerge]++
		s.folded = true
		s.coef[i] += coef
		return true
	}
	if s.n == sumWindow {
		return false
	}
	copy(s.atom[i+1:], s.atom[i:s.n])
	copy(s.coef[i+1:], s.coef[i:s.n])
	s.atom[i], s.coef[i] = t, coef
	s.n++
	return true
}

// scaleMet books a sum, shift or product met under a coefficient other
// than ±1: two scales fold into one, and a scaled sum is always the sum
// of its scaled terms (both (x + c) << 2 and (x << 2) + 4c are met).
func (b *Builder) scaleMet(s *linSum, w int, coef uint64) {
	if c := coef & mask(w); c != 1 && c != mask(w) {
		b.hits[ruleScale]++
		s.folded = true
	}
}

// sum interns s in its one spelling: the monomials in atom order added
// left to right, the constant last. A coefficient of 1 is the atom, a
// power of two a shift, anything else a product; one with more bits set
// than its negation is the neg of that (the blaster subtracts, and a
// product costs an adder per set bit).
func (b *Builder) sum(s *linSum, w int) *Term {
	var acc *Term
	for i, t := range s.atom[:s.n] {
		c := s.coef[i] & mask(w)
		if c == 0 {
			continue
		}
		if nc := -c & mask(w); bits.OnesCount64(nc) < bits.OnesCount64(c) {
			t = b.intern(opNeg, w, 0, "", b.scaled(t, nc))
		} else {
			t = b.scaled(t, c)
		}
		if acc == nil {
			acc = t
		} else {
			acc = b.intern(OpAdd, w, 0, "", acc, t)
		}
	}
	k := s.k & mask(w)
	if acc == nil {
		return b.Const(w, k)
	}
	if k != 0 {
		acc = b.intern(OpAdd, w, 0, "", acc, b.Const(w, k))
	}
	return acc
}

// scaled interns c·t for an atom t and c not zero.
func (b *Builder) scaled(t *Term, c uint64) *Term {
	switch {
	case c == 1:
		return t
	case c&(c-1) == 0:
		return b.intern(OpShl, t.Width, 0, "", t, b.Const(t.Width, uint64(bits.TrailingZeros64(c))))
	}
	return b.intern(OpMul, t.Width, 0, "", t, b.Const(t.Width, c))
}

// linear builds x op y, for op one of add, sub, and mul or shl by a
// constant, when reading it as a sum folds something: the sum is then
// interned in its one spelling, so source and target of a rewrite that
// reassociates, negates, cancels or strength-reduces intern to one term.
// It returns nil when nothing folds — the expression is kept as built,
// which is how it shares structure with the other side of a refinement
// query — or when the sum does not fit the window.
func (b *Builder) linear(op Op, x, y *Term) *Term {
	var s linSum
	fits := false
	switch op {
	case OpAdd:
		fits = b.addScaled(&s, x, 1) && b.addScaled(&s, y, 1)
	case OpSub:
		fits = b.addScaled(&s, x, 1) && b.addScaled(&s, y, ^uint64(0))
	case OpMul:
		if c, ok := constOf(y); ok {
			fits = b.addScaled(&s, x, c)
		}
	case OpShl:
		if c, ok := constOf(y); ok {
			fits = b.addScaled(&s, x, 1<<c)
		}
	}
	if !fits || !s.folded {
		return nil
	}
	return b.sum(&s, x.Width)
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
	var s linSum
	if b.addScaled(&s, x, ^uint64(0)) && (s.folded || s.n == 0) {
		return b.sum(&s, x.Width)
	}
	return b.intern(opNeg, x.Width, 0, "", x)
}

// Cmp builds a comparison term of width 1.
func (b *Builder) Cmp(op Op, x, y *Term) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("bv: cmp width mismatch %d vs %d", x.Width, y.Width))
	}
	// Equality is commutative: canonicalize like Bin does.
	if op == opEq && x.id > y.id {
		x, y = y, x
	}
	if xc, ok1 := constOf(x); ok1 {
		if yc, ok2 := constOf(y); ok2 {
			w := x.Width
			var r bool
			switch op {
			case opEq:
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
		case opEq, OpUle, OpSle:
			return b.True()
		case OpUlt, OpSlt:
			return b.False()
		}
	}
	if op == opEq {
		// x + c1 == c2 is x == c2 - c1: a sum keeps its constant last.
		for _, p := range [2][2]*Term{{x, y}, {y, x}} {
			if c2, ok := constOf(p[1]); ok && p[0].Op == OpAdd {
				if c1, ok := constOf(p[0].Kids[1]); ok {
					b.hits[ruleEqConst]++
					return b.Cmp(opEq, p[0].Kids[0], b.Const(x.Width, c2-c1))
				}
			}
		}
	}
	return b.intern(op, 1, 0, "", x, y)
}

// Eq is shorthand for Cmp(OpEq, x, y).
func (b *Builder) Eq(x, y *Term) *Term { return b.Cmp(opEq, x, y) }

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
	return b.intern(opIte, t.Width, 0, "", c, t, f)
}

// ZExt zero-extends x to width w.
func (b *Builder) ZExt(x *Term, w int) *Term {
	if w == x.Width {
		return x
	}
	if c, ok := constOf(x); ok {
		return b.Const(w, c)
	}
	return b.intern(opZExt, w, 0, "", x)
}

// SExt sign-extends x to width w.
func (b *Builder) SExt(x *Term, w int) *Term {
	if w == x.Width {
		return x
	}
	if c, ok := constOf(x); ok {
		return b.Const(w, uint64(signExtend(c, x.Width)))
	}
	return b.intern(opSExt, w, 0, "", x)
}

// Trunc truncates x to width w.
func (b *Builder) Trunc(x *Term, w int) *Term {
	if w == x.Width {
		return x
	}
	if c, ok := constOf(x); ok {
		return b.Const(w, c)
	}
	return b.intern(opTrunc, w, 0, "", x)
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
// memoized over the hash-consed DAG (by term id), so heavily shared
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
		m.slots = extend(m.slots, t.id+1)
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
	case opVar:
		v, ok := env[t.name]
		if !ok {
			return 0, true // unconstrained variables default to 0
		}
		return v & mask(t.Width), true
	case OpNot:
		v, ok := m.eval(t.Kids[0], env)
		return ^v & mask(t.Width), ok
	case opNeg:
		v, ok := m.eval(t.Kids[0], env)
		return -v & mask(t.Width), ok
	case opIte:
		c, ok := m.eval(t.Kids[0], env)
		if !ok {
			return 0, false
		}
		if c&1 == 1 {
			return m.eval(t.Kids[1], env)
		}
		return m.eval(t.Kids[2], env)
	case opZExt:
		v, ok := m.eval(t.Kids[0], env)
		return v & mask(t.Kids[0].Width), ok
	case opSExt:
		v, ok := m.eval(t.Kids[0], env)
		return uint64(signExtend(v, t.Kids[0].Width)) & mask(t.Width), ok
	case opTrunc:
		v, ok := m.eval(t.Kids[0], env)
		return v & mask(t.Width), ok
	case opEq, OpUlt, OpUle, OpSlt, OpSle:
		x, ok1 := m.eval(t.Kids[0], env)
		y, ok2 := m.eval(t.Kids[1], env)
		if !ok1 || !ok2 {
			return 0, false
		}
		w := t.Kids[0].Width
		var r bool
		switch t.Op {
		case opEq:
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

// extend returns s lengthened to n, its new elements zero, doubling its
// array when it must grow, in one allocation (append(s, make(…)...)
// makes the zeroed tail separately under -race). What lies past len(s)
// is zero because nothing ever writes there.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, len(s), max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	return s[:n]
}
