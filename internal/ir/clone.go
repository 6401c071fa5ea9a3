package ir

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// CloneFunc produces a deep copy of a function the way parseFunc builds
// one: after a counting pass, every Param, Block and Instr comes from a
// slab of its kind and every list is a window carved from one slab per
// element type, nil where the original's is empty. Constants are shared
// (they are immutable), and so is any value that is not f's own. The
// copy is in fresh memory: it is a zero Copier's.
func CloneFunc(f *Function) *Function {
	var c Copier
	return c.Clone(f)
}

// A Copier builds functions, copies (Clone) or parses (Parse) alike,
// into memory it may reuse. It holds the function and the slabs of the
// last one it built; once the caller says that one is dropped
// (Release), the next Clone or Parse carves from them where they are
// big enough. Until then every one allocates, so a caller that never
// releases shares nothing.
type Copier struct {
	released  bool
	fn        *Function
	params    []Param
	paramPtrs []*Param
	blocks    []Block
	blockPtrs []*Block
	instrs    []Instr
	instrPtrs []*Instr
	vals      []Value
	incs      []Incoming
	cases     []*Const
	consts    []Const
}

// Release tells c that the last function it built is dropped: nothing
// will read or write it again, so the next Clone or Parse may overwrite
// it.
func (c *Copier) Release() { c.released = true }

// claim starts a function: it reports whether the memory c holds may be
// overwritten, and sets c.fn to the Function to build.
func (c *Copier) claim() (reuse bool) {
	reuse, c.released = c.released, false
	if !reuse || c.fn == nil {
		c.fn = new(Function)
	}
	return reuse
}

// Clone returns a deep copy of f, in the memory of the last function c
// built when that was released.
func (c *Copier) Clone(f *Function) *Function {
	var instrs, args, succs, incs, cases int
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args, succs, incs, cases = args+len(in.Args), succs+len(in.Succs), incs+len(in.Incs), cases+len(in.Cases)
		}
	}
	reuse := c.claim()
	nf := c.fn
	*nf = Function{NameStr: f.NameStr, RetTy: f.RetTy, Attrs: f.Attrs}
	paramSlab, paramPtrs := slab(&c.params, reuse, len(f.Params)), slab(&c.paramPtrs, reuse, len(f.Params))
	nf.Params = carve(&paramPtrs, len(f.Params))
	for i, p := range f.Params {
		paramSlab[i] = *p
		nf.Params[i] = &paramSlab[i]
	}
	blockSlab, blockPtrs := slab(&c.blocks, reuse, len(f.Blocks)), slab(&c.blockPtrs, reuse, len(f.Blocks)+succs)
	nf.Blocks = carve(&blockPtrs, len(f.Blocks))
	instrSlab, instrPtrs := slab(&c.instrs, reuse, instrs), slab(&c.instrPtrs, reuse, instrs)
	for bi, b := range f.Blocks {
		nb := &blockSlab[bi]
		*nb = Block{NameStr: b.NameStr, Instrs: carve(&instrPtrs, len(b.Instrs)), Parent: nf}
		nf.Blocks[bi] = nb
		for ii, in := range b.Instrs {
			ni := &carve(&instrSlab, 1)[0]
			*ni = *in // every list is replaced below
			ni.Parent, nb.Instrs[ii] = nb, ni
		}
	}
	// An instruction, parameter or block of f maps to its copy at the
	// same position (Position, BlockIndex); anything else, a value of
	// another function included, stays shared, and another function's
	// block is nil. Second sweep resolves operands (handles forward refs
	// through phis).
	valSlab, incSlab, caseSlab := slab(&c.vals, reuse, args), slab(&c.incs, reuse, incs), slab(&c.cases, reuse, cases)
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			copyOf := func(v Value) Value {
				if bk, j := f.Position(bi, ii, v); bk >= 0 {
					return nf.Blocks[bk].Instrs[j]
				}
				if p, ok := v.(*Param); ok {
					if i := slices.Index(f.Params, p); i >= 0 {
						return nf.Params[i]
					}
				}
				return v
			}
			blockOf := func(b *Block) *Block {
				if i := f.BlockIndex(bi, b); i >= 0 {
					return nf.Blocks[i]
				}
				return nil
			}
			ni := nf.Blocks[bi].Instrs[ii]
			ni.Args, ni.Succs = carve(&valSlab, len(in.Args)), carve(&blockPtrs, len(in.Succs))
			ni.Incs, ni.Cases = carve(&incSlab, len(in.Incs)), carve(&caseSlab, len(in.Cases))
			for i, a := range in.Args {
				ni.Args[i] = copyOf(a)
			}
			for i, s := range in.Succs {
				ni.Succs[i] = blockOf(s)
			}
			for i, inc := range in.Incs {
				ni.Incs[i] = Incoming{Val: copyOf(inc.Val), Block: blockOf(inc.Block)}
			}
			copy(ni.Cases, in.Cases)
		}
	}
	return nf
}

// slab returns n elements of *held, first replaced by a fresh slab
// unless reuse is set and it has room. Clone and the parser overwrite
// every element they hand out.
func slab[T any](held *[]T, reuse bool, n int) []T {
	if !reuse || cap(*held) < n {
		*held = make([]T, n)
	}
	return (*held)[:n]
}

// carve takes the next n elements of *slab as a window whose capacity is
// its length, nil when n is 0: an append to one window reallocates it
// instead of writing into the next.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	w := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return w
}

// canonicalNumbers calls fn with the name field of every param, block
// and result of f and its number in the sequential scheme clang uses:
// params, then blocks and the results in them, in layout order (the
// block of a single-block function is "entry", entryNum, instead).
// Under these names structurally identical functions print identically.
func canonicalNumbers(f *Function, fn func(name *string, n int)) {
	next := 0
	number := func(name *string) { fn(name, next); next++ }
	for _, p := range f.Params {
		number(&p.NameStr)
	}
	for _, b := range f.Blocks {
		if len(f.Blocks) == 1 {
			fn(&b.NameStr, entryNum)
		} else {
			number(&b.NameStr)
		}
		for _, in := range b.Instrs {
			if in.HasResult() {
				number(&in.NameStr)
			}
		}
	}
}

const entryNum = -1

// RenumberFunc renames f's local values and blocks into that scheme.
func RenumberFunc(f *Function) {
	canonicalNumbers(f, func(name *string, n int) {
		*name = "entry"
		if n != entryNum {
			*name = strconv.Itoa(n)
		}
	})
}

// ReplaceAllUses rewrites every use of old with new throughout f.
func ReplaceAllUses(f *Function, old, nv Value) {
	f.ForEachInstr(func(_ *Block, in *Instr) {
		for i, a := range in.Args {
			if a == old {
				in.Args[i] = nv
			}
		}
		for i := range in.Incs {
			if in.Incs[i].Val == old {
				in.Incs[i].Val = nv
			}
		}
	})
}

// RemoveInstr deletes an instruction from its block. The caller is
// responsible for ensuring it has no remaining uses.
func RemoveInstr(in *Instr) {
	if b := in.Parent; b != nil {
		if i := slices.Index(b.Instrs, in); i >= 0 {
			removeAt(b, i)
		}
	}
}

// removeAt deletes the instruction at position i of b and detaches it.
func removeAt(b *Block, i int) {
	in := b.Instrs[i]
	b.Instrs = slices.Delete(b.Instrs, i, i+1)
	in.Parent = nil
}

// hasSideEffects reports whether removing the instruction could change
// observable behaviour (stores, calls, terminators, and
// possibly-trapping division). Every call counts, a readnone callee's
// too: alive and interp both observe each call as an event.
func hasSideEffects(in *Instr) bool {
	switch in.Op {
	case OpStore, OpRet, OpBr, OpCondBr, OpUnreachable, OpCall:
		return true
	}
	if in.Op.IsDivRem() {
		// Division traps on a zero (or overflowing) divisor unless the
		// divisor is a known-safe constant.
		if c, ok := in.Args[1].(*Const); ok && !c.IsZero() {
			if in.Op == OpSDiv || in.Op == OpSRem {
				// INT_MIN / -1 also traps.
				if c.IsAllOnes() {
					return true
				}
			}
			return false
		}
		return true
	}
	return false
}

// DeadCodeElim removes unused side-effect-free instructions until a
// fixpoint, returning the number removed. Dead is what HasDeadCode
// finds; this is its acting half, which removes in place and allocates
// nothing. The walk runs backward, so a dead chain goes in one round:
// a user comes before the operands it names. Removal only ever takes
// uses away, so the order does not change what is left.
func DeadCodeElim(f *Function) int {
	removed := 0
	for {
		round := 0
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
				if dead(f, bi, ii, b.Instrs[ii]) {
					removeAt(b, ii)
					round++
				}
			}
		}
		if round == 0 {
			return removed
		}
		removed += round
	}
}

// HasDeadCode reports whether DeadCodeElim would remove anything from
// f, which it only reads, allocating nothing.
func HasDeadCode(f *Function) bool {
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			if dead(f, bi, ii, in) {
				return true
			}
		}
	}
	return false
}

// dead reports whether in, at position ii of block bi, can go: it
// defines a value nothing names, and removing it changes nothing
// observable.
func dead(f *Function, bi, ii int, in *Instr) bool {
	return in.HasResult() && !hasSideEffects(in) && !used(f, bi, ii, in)
}

// used reports whether anything in f names def, which sits at position
// ii of block bi: the search starts just after it, where most uses
// are, goes on through the blocks after bi and then those before it,
// and ends at def itself.
func used(f *Function, bi, ii int, def *Instr) bool {
	b := f.Blocks[bi]
	if anyNames(b.Instrs[ii+1:], def) {
		return true
	}
	for _, blocks := range [2][]*Block{f.Blocks[bi+1:], f.Blocks[:bi]} {
		for _, c := range blocks {
			if anyNames(c.Instrs, def) {
				return true
			}
		}
	}
	return anyNames(b.Instrs[:ii+1], def)
}

// anyNames reports whether one of instrs names def.
func anyNames(instrs []*Instr, def *Instr) bool {
	for _, in := range instrs {
		if names(in, def) {
			return true
		}
	}
	return false
}

// names reports whether def is one of in's operands or phi incomings.
// It compares pointers after a type check, which is cheaper than
// comparing interface values.
func names(in *Instr, def *Instr) bool {
	for _, a := range in.Args {
		if x, ok := a.(*Instr); ok && x == def {
			return true
		}
	}
	for _, inc := range in.Incs {
		if x, ok := inc.Val.(*Instr); ok && x == def {
			return true
		}
	}
	return false
}

// AllocaUses is what a function does with one alloca's address.
type AllocaUses struct {
	Loads, Stores int
	Store         *Instr // the last store to it in layout order; nil when Stores is 0
	// Escapes is any use but a load's address or a store's pointer: the
	// stored value, any other instruction's operand, a phi incoming.
	Escapes bool
	// Retyped is a load or store of a type other than its AllocTy.
	Retyped bool
}

// UsesOfAlloca takes alloca a's census in one walk of f, which it only
// reads, allocating nothing. It is the one question instcombine's
// memory cleanups and the promotions ask of an alloca.
func UsesOfAlloca(f *Function, a *Instr) AllocaUses {
	var u AllocaUses
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case OpLoad:
				if in.Args[0] == Value(a) {
					u.Loads++
					u.Retyped = u.Retyped || !in.Ty.Equal(a.AllocTy)
				}
			case OpStore:
				u.Escapes = u.Escapes || in.Args[0] == Value(a)
				if in.Args[1] == Value(a) {
					u.Stores++
					u.Store = in
					u.Retyped = u.Retyped || !in.Args[0].Type().Equal(a.AllocTy)
				}
			default:
				u.Escapes = u.Escapes || names(in, a)
			}
		}
	}
	return u
}

// AccessedAlloca returns the alloca a load reads or a store writes, or
// nil when in is neither or its pointer is not an alloca.
func AccessedAlloca(in *Instr) *Instr {
	var p Value
	switch in.Op {
	case OpLoad:
		p = in.Args[0]
	case OpStore:
		p = in.Args[1]
	}
	if a, ok := p.(*Instr); ok && a.Op == OpAlloca {
		return a
	}
	return nil
}

// FingerprintText strips whitespace variations from IR text so that
// cosmetic differences do not affect exact-match comparison: every
// line becomes its whitespace-separated fields joined by single
// spaces, and empty lines are dropped.
func FingerprintText(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	sep, start := "", -1 // what goes before the next field; where the field being read began
	flush := func(end int) {
		if start >= 0 {
			sb.WriteString(sep)
			sb.WriteString(s[start:end])
			sep, start = " ", -1
		}
	}
	for i, r := range s {
		switch {
		case r == '\n':
			flush(i)
			if sb.Len() > 0 {
				sep = "\n"
			}
		case unicode.IsSpace(r):
			flush(i)
		case start < 0:
			start = i
		}
	}
	flush(len(s))
	return sb.String()
}
