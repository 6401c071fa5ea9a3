package bv

import (
	"fmt"

	"veriopt/internal/sat"
)

// Blaster translates bit-vector terms into CNF over a sat.Solver via
// Tseitin encoding, one solver variable per bit.
//
// The blast cache is indexed by term id, which is unique and dense per
// Builder, and it survives across queries: a Blaster reused for a
// stream of queries over one Builder (the Session path) blasts every
// shared subterm exactly once. Consequently a Blaster must only ever
// see terms from a single Builder.
type Blaster struct {
	S     *sat.Solver
	cache [][]sat.Lit // term id -> bit literals, nil until blasted
	// tLit/fLit are literals fixed to true/false.
	tLit, fLit sat.Lit
	vars       map[string][]sat.Lit // variable name -> bit literals
	// gates hash-conses gate outputs: structurally identical gates
	// (same op, same input literals) share one Tseitin variable, which
	// shrinks the CNF the solver has to search over.
	gates map[gateKey]sat.Lit
}

// gateKey identifies a gate up to commutativity (callers normalize the
// operand order for commutative ops).
type gateKey struct {
	op      uint8
	a, b, c sat.Lit
}

const (
	gateAnd uint8 = iota
	gateXor
	gateMux
)

// NewBlaster wires a blaster to a fresh solver whose Proof is proof.
func NewBlaster(proof sat.ProofSink) *Blaster {
	s := sat.New()
	s.Proof = proof
	b := &Blaster{S: s, vars: map[string][]sat.Lit{}, gates: map[gateKey]sat.Lit{}}
	v := s.NewVar()
	b.tLit = sat.MkLit(v, false)
	b.fLit = b.tLit.Not()
	s.AddClause(b.tLit)
	return b
}

func (bl *Blaster) freshLit() sat.Lit {
	return sat.MkLit(bl.S.NewVar(), false)
}

// constLit returns the literal fixed to the given truth value.
func (bl *Blaster) constLit(v bool) sat.Lit {
	if v {
		return bl.tLit
	}
	return bl.fLit
}

// andGate returns a literal equivalent to a ∧ b.
func (bl *Blaster) andGate(a, b sat.Lit) sat.Lit {
	if a == bl.fLit || b == bl.fLit {
		return bl.fLit
	}
	if a == bl.tLit {
		return b
	}
	if b == bl.tLit {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return bl.fLit
	}
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: gateAnd, a: a, b: b}
	if o, ok := bl.gates[key]; ok {
		return o
	}
	o := bl.freshLit()
	bl.S.AddClause(o.Not(), a)
	bl.S.AddClause(o.Not(), b)
	bl.S.AddClause(o, a.Not(), b.Not())
	bl.gates[key] = o
	return o
}

// orGate returns a literal equivalent to a ∨ b.
func (bl *Blaster) orGate(a, b sat.Lit) sat.Lit {
	return bl.andGate(a.Not(), b.Not()).Not()
}

// xorGate returns a literal equivalent to a ⊕ b.
func (bl *Blaster) xorGate(a, b sat.Lit) sat.Lit {
	if a == bl.fLit {
		return b
	}
	if b == bl.fLit {
		return a
	}
	if a == bl.tLit {
		return b.Not()
	}
	if b == bl.tLit {
		return a.Not()
	}
	if a == b {
		return bl.fLit
	}
	if a == b.Not() {
		return bl.tLit
	}
	// xor is invariant under pushing negations to the output:
	// ¬a⊕b = ¬(a⊕b). Canonicalize to positive inputs and fold the
	// parity into the cached output so all four polarity variants of
	// one gate share a single Tseitin variable.
	var parity sat.Lit
	if a.Neg() {
		a, parity = a.Not(), parity^1
	}
	if b.Neg() {
		b, parity = b.Not(), parity^1
	}
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: gateXor, a: a, b: b}
	if o, ok := bl.gates[key]; ok {
		return o ^ parity
	}
	o := bl.freshLit()
	bl.S.AddClause(o.Not(), a, b)
	bl.S.AddClause(o.Not(), a.Not(), b.Not())
	bl.S.AddClause(o, a, b.Not())
	bl.S.AddClause(o, a.Not(), b)
	bl.gates[key] = o
	return o ^ parity
}

// muxGate returns c ? t : f.
func (bl *Blaster) muxGate(c, t, f sat.Lit) sat.Lit {
	if c == bl.tLit {
		return t
	}
	if c == bl.fLit {
		return f
	}
	if t == f {
		return t
	}
	// Constant arms reduce to two-input gates, which are cheaper to
	// encode and shared through the gate cache.
	if t == bl.tLit {
		return bl.orGate(c, f)
	}
	if t == bl.fLit {
		return bl.andGate(c.Not(), f)
	}
	if f == bl.tLit {
		return bl.orGate(c.Not(), t)
	}
	if f == bl.fLit {
		return bl.andGate(c, t)
	}
	if t == f.Not() {
		return bl.xorGate(c, f)
	}
	key := gateKey{op: gateMux, a: c, b: t, c: f}
	if o, ok := bl.gates[key]; ok {
		return o
	}
	o := bl.freshLit()
	bl.S.AddClause(o.Not(), c.Not(), t)
	bl.S.AddClause(o.Not(), c, f)
	bl.S.AddClause(o, c.Not(), t.Not())
	bl.S.AddClause(o, c, f.Not())
	bl.gates[key] = o
	return o
}

// fullAdder returns (sum, carry) of a+b+cin.
func (bl *Blaster) fullAdder(a, b, cin sat.Lit) (sum, cout sat.Lit) {
	ab := bl.xorGate(a, b)
	sum = bl.xorGate(ab, cin)
	cout = bl.orGate(bl.andGate(a, b), bl.andGate(cin, ab))
	return sum, cout
}

// adder returns a+b (dropping the final carry) with cin.
func (bl *Blaster) adder(a, b []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	c := cin
	for i := range a {
		out[i], c = bl.fullAdder(a[i], b[i], c)
	}
	return out
}

// complement returns the bitwise complement of a.
func complement(a []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(a))
	for i, l := range a {
		inv[i] = l.Not()
	}
	return inv
}

func (bl *Blaster) negate(a []sat.Lit) []sat.Lit {
	zeros := make([]sat.Lit, len(a))
	for i := range zeros {
		zeros[i] = bl.fLit
	}
	return bl.adder(complement(a), zeros, bl.tLit)
}

// blast returns the bit literals (LSB first) representing t.
func (bl *Blaster) blast(t *Term) []sat.Lit {
	if t.id < len(bl.cache) && bl.cache[t.id] != nil {
		return bl.cache[t.id]
	}
	lits := bl.blastUncached(t)
	if len(lits) != t.Width {
		panic(fmt.Sprintf("bv: blast width mismatch for %v: got %d, want %d", t.Op, len(lits), t.Width))
	}
	if t.id >= len(bl.cache) {
		bl.cache = extend(bl.cache, t.id+1)
	}
	bl.cache[t.id] = lits
	return lits
}

func (bl *Blaster) blastUncached(t *Term) []sat.Lit {
	w := t.Width
	switch t.Op {
	case OpConst:
		out := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			out[i] = bl.constLit(t.Val>>uint(i)&1 == 1)
		}
		return out
	case opVar:
		if lits, ok := bl.vars[t.name]; ok {
			if len(lits) != w {
				panic("bv: variable " + t.name + " used at two widths")
			}
			return lits
		}
		out := make([]sat.Lit, w)
		for i := range out {
			out[i] = bl.freshLit()
		}
		bl.vars[t.name] = out
		return out
	case OpNot:
		return complement(bl.blast(t.Kids[0]))
	case opNeg:
		return bl.negate(bl.blast(t.Kids[0]))
	case OpAdd:
		// x + neg y is x - y: one adder over y's complement with the
		// carry in set, not a negation and then an addition.
		var in [2][]sat.Lit
		cin := bl.fLit
		for i, k := range t.Kids {
			if k.Op == opNeg && cin == bl.fLit {
				in[i], cin = complement(bl.blast(k.Kids[0])), bl.tLit
			} else {
				in[i] = bl.blast(k)
			}
		}
		return bl.adder(in[0], in[1], cin)
	case OpMul:
		return bl.multiplier(bl.blast(t.Kids[0]), bl.blast(t.Kids[1]))
	case OpAnd, OpOr, OpXor:
		x, y := bl.blast(t.Kids[0]), bl.blast(t.Kids[1])
		out := make([]sat.Lit, w)
		for i := range out {
			switch t.Op {
			case OpAnd:
				out[i] = bl.andGate(x[i], y[i])
			case OpOr:
				out[i] = bl.orGate(x[i], y[i])
			case OpXor:
				out[i] = bl.xorGate(x[i], y[i])
			}
		}
		return out
	case OpShl, OpLShr, OpAShr:
		return bl.shifter(t.Op, bl.blast(t.Kids[0]), bl.blast(t.Kids[1]))
	case OpUDiv, OpSDiv, OpURem, OpSRem:
		return bl.divider(t)
	case opEq:
		x, y := bl.blast(t.Kids[0]), bl.blast(t.Kids[1])
		acc := bl.tLit
		for i := range x {
			acc = bl.andGate(acc, bl.xorGate(x[i], y[i]).Not())
		}
		return []sat.Lit{acc}
	case OpUlt, OpUle, OpSlt, OpSle:
		return []sat.Lit{bl.compare(t.Op, bl.blast(t.Kids[0]), bl.blast(t.Kids[1]))}
	case opIte:
		c := bl.blast(t.Kids[0])[0]
		x, y := bl.blast(t.Kids[1]), bl.blast(t.Kids[2])
		out := make([]sat.Lit, w)
		for i := range out {
			out[i] = bl.muxGate(c, x[i], y[i])
		}
		return out
	case opZExt:
		x := bl.blast(t.Kids[0])
		out := make([]sat.Lit, w)
		copy(out, x)
		for i := len(x); i < w; i++ {
			out[i] = bl.fLit
		}
		return out
	case opSExt:
		x := bl.blast(t.Kids[0])
		out := make([]sat.Lit, w)
		copy(out, x)
		sign := x[len(x)-1]
		for i := len(x); i < w; i++ {
			out[i] = sign
		}
		return out
	case opTrunc:
		x := bl.blast(t.Kids[0])
		out := make([]sat.Lit, w)
		copy(out, x[:w])
		return out
	}
	panic(fmt.Sprintf("bv: unhandled op %v", t.Op))
}

// multiplier is a shift-and-add array multiplier.
func (bl *Blaster) multiplier(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = bl.fLit
	}
	for i := 0; i < w; i++ {
		// partial = (x << i) AND y[i]
		partial := make([]sat.Lit, w)
		for j := range partial {
			if j < i {
				partial[j] = bl.fLit
			} else {
				partial[j] = bl.andGate(x[j-i], y[i])
			}
		}
		acc = bl.adder(acc, partial, bl.fLit)
	}
	return acc
}

// shifter is a logarithmic barrel shifter. Shift amounts >= width
// produce 0 (Shl/LShr) or the sign fill (AShr), matching foldBin.
func (bl *Blaster) shifter(op Op, x, sh []sat.Lit) []sat.Lit {
	w := len(x)
	cur := append([]sat.Lit(nil), x...)
	fill := bl.fLit
	if op == OpAShr {
		fill = x[w-1]
	}
	for stage := 0; (1 << uint(stage)) < w; stage++ {
		amt := 1 << uint(stage)
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch op {
			case OpShl:
				if i >= amt {
					shifted = cur[i-amt]
				} else {
					shifted = fill
				}
			default: // LShr, AShr
				if i+amt < w {
					shifted = cur[i+amt]
				} else {
					shifted = fill
				}
			}
			next[i] = bl.muxGate(sh[stage], shifted, cur[i])
		}
		cur = next
	}
	stages := 0
	for (1 << uint(stages)) < w {
		stages++
	}
	// If any shift bit >= log2ceil(w) is set, the amount is >= w.
	over := bl.fLit
	for stage := stages; stage < len(sh); stage++ {
		over = bl.orGate(over, sh[stage])
	}
	// Also handle non-power-of-two widths: amount in [w, 2^stages).
	if w != 1<<uint(stages) {
		// Compare low bits of sh against w.
		low := sh
		if len(low) > stages {
			low = low[:stages]
		}
		geW := bl.ugeConst(low, uint64(w))
		over = bl.orGate(over, geW)
	}
	out := make([]sat.Lit, w)
	for i := range out {
		out[i] = bl.muxGate(over, fill, cur[i])
	}
	return out
}

// ugeConst returns a literal for (bits as unsigned) >= c.
func (bl *Blaster) ugeConst(bits []sat.Lit, c uint64) sat.Lit {
	// bits >= c  <=>  NOT (bits < c)
	lt := bl.fLit
	eqSoFar := bl.tLit
	for i := len(bits) - 1; i >= 0; i-- {
		cb := c>>uint(i)&1 == 1
		if cb {
			lt = bl.orGate(lt, bl.andGate(eqSoFar, bits[i].Not()))
			eqSoFar = bl.andGate(eqSoFar, bits[i])
		} else {
			eqSoFar = bl.andGate(eqSoFar, bits[i].Not())
		}
	}
	if c >= uint64(1)<<uint(len(bits)) {
		return bl.fLit // cannot reach c
	}
	return lt.Not()
}

// compare builds unsigned/signed < and <=.
func (bl *Blaster) compare(op Op, x, y []sat.Lit) sat.Lit {
	w := len(x)
	// For signed compares, flip the sign bits: then unsigned compare.
	if op == OpSlt || op == OpSle {
		x = append([]sat.Lit(nil), x...)
		y = append([]sat.Lit(nil), y...)
		x[w-1] = x[w-1].Not()
		y[w-1] = y[w-1].Not()
	}
	lt := bl.fLit
	eq := bl.tLit
	for i := w - 1; i >= 0; i-- {
		lt = bl.orGate(lt, bl.andGate(eq, bl.andGate(x[i].Not(), y[i])))
		eq = bl.andGate(eq, bl.xorGate(x[i], y[i]).Not())
	}
	switch op {
	case OpUlt, OpSlt:
		return lt
	default: // Ule, Sle
		return bl.orGate(lt, eq)
	}
}

// divider encodes division/remainder via the Euclidean axioms with
// fresh quotient/remainder bits: a = q*b + r with r < b when b != 0
// (unsigned), or the round-toward-zero analogue (signed). When b == 0
// the result bits are unconstrained — callers must guard zero
// divisors with UB conditions, as internal/alive does.
func (bl *Blaster) divider(t *Term) []sat.Lit {
	w := t.Width
	a := bl.blast(t.Kids[0])
	b := bl.blast(t.Kids[1])
	q := make([]sat.Lit, w)
	r := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		q[i] = bl.freshLit()
		r[i] = bl.freshLit()
	}
	signed := t.Op == OpSDiv || t.Op == OpSRem

	// Work at 2w to avoid overflow in q*b + r.
	ext := func(bits []sat.Lit) []sat.Lit {
		out := make([]sat.Lit, 2*w)
		copy(out, bits)
		fill := bl.fLit
		if signed {
			fill = bits[w-1]
		}
		for i := w; i < 2*w; i++ {
			out[i] = fill
		}
		return out
	}
	a2, b2, q2, r2 := ext(a), ext(b), ext(q), ext(r)
	prod := bl.multiplier(q2, b2)
	sum := bl.adder(prod, r2, bl.fLit)
	// The Euclidean axioms only hold where the division is defined:
	// b != 0, and for signed division not the MinInt/-1 overflow (its
	// quotient is unrepresentable, so constraining it would wrongly
	// exclude those inputs from the whole search space). Undefined
	// cases leave the result bits unconstrained; internal/alive guards
	// them with UB conditions.
	guard := bl.fLit
	for i := 0; i < w; i++ {
		guard = bl.orGate(guard, b[i]) // b != 0
	}
	if signed {
		bAllOnes := bl.tLit
		for i := 0; i < w; i++ {
			bAllOnes = bl.andGate(bAllOnes, b[i])
		}
		aMin := a[w-1]
		for i := 0; i < w-1; i++ {
			aMin = bl.andGate(aMin, a[i].Not())
		}
		guard = bl.andGate(guard, bl.andGate(bAllOnes, aMin).Not())
	}
	// guard -> (sum == a2)
	for i := 0; i < 2*w; i++ {
		diff := bl.xorGate(sum[i], a2[i])
		bl.S.AddClause(guard.Not(), diff.Not())
	}
	if !signed {
		// guard -> r < b (unsigned)
		rLt := bl.compare(OpUlt, r, b)
		bl.S.AddClause(guard.Not(), rLt)
	} else {
		// |r| < |b| and (r == 0 or sign(r) == sign(a)).
		absW := func(bits []sat.Lit) []sat.Lit {
			neg := bl.negate(bits)
			out := make([]sat.Lit, w)
			for i := range out {
				out[i] = bl.muxGate(bits[w-1], neg[i], bits[i])
			}
			return out
		}
		ra, rb := absW(r), absW(b)
		rLt := bl.compare(OpUlt, ra, rb)
		bl.S.AddClause(guard.Not(), rLt)
		rZero := bl.tLit
		for i := 0; i < w; i++ {
			rZero = bl.andGate(rZero, r[i].Not())
		}
		sameSign := bl.xorGate(r[w-1], a[w-1]).Not()
		ok := bl.orGate(rZero, sameSign)
		bl.S.AddClause(guard.Not(), ok)
	}
	if t.Op == OpUDiv || t.Op == OpSDiv {
		return q
	}
	return r
}

// AssertTrue adds the constraint that the width-1 term t is 1.
func (bl *Blaster) AssertTrue(t *Term) {
	if t.Width != 1 {
		panic("bv: AssertTrue on non-boolean term")
	}
	bl.S.AddClause(bl.blast(t)[0])
}

// Model extracts variable values from a satisfying assignment.
func (bl *Blaster) Model() map[string]uint64 {
	m := map[string]uint64{}
	for name, bits := range bl.vars {
		var v uint64
		for i, l := range bits {
			bit := bl.S.Value(l.Var())
			if l.Neg() {
				bit = !bit
			}
			if bit {
				v |= 1 << uint(i)
			}
		}
		m[name] = v
	}
	return m
}

// Result of a Check call.
type Result struct {
	Status sat.Status
	Model  map[string]uint64
	// Conflicts is the number of SAT conflicts the solver spent on
	// this check (0 when the concrete pre-pass answered it).
	Conflicts int
}
