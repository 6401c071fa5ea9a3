package ir

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// CloneFunc produces a deep copy of a function the way parseFunc builds
// one: after a counting pass, every Param, Block and Instr and every
// list is carved from a window per element type, a list nil where the
// original's is empty. Constants are shared (they are immutable), and
// so is any value that is not f's own. The copy is a zero Copier's.
func CloneFunc(f *Function) *Function {
	var c Copier
	return c.Clone(f)
}

// A Copier builds functions, copies (Clone) or parses (Parse) alike,
// as a bump arena: a chunk per kind of element a function is made of,
// each function carved after the last, so that the ones a caller keeps
// share a few chunks and are never written again. Once the caller says
// the last one is dropped (Release), the next is carved where it began.
type Copier struct {
	fns       arena[Function]
	params    arena[Param]
	blocks    arena[Block]
	instrs    arena[Instr]
	paramPtrs arena[*Param]
	blockPtrs arena[*Block] // a function's blocks, then its successor lists
	instrPtrs arena[*Instr]
	vals      arena[Value]
	incs      arena[Incoming]
	cases     arena[*Const]
	consts    arena[Const]
}

// Release tells c that the last function it built is dropped: nothing
// will read or write it again, so the next Clone or Parse may overwrite
// it.
func (c *Copier) Release() { c.mark(true) }

// mark marks in every arena where the next function begins, or with
// release set rewinds every arena to its mark.
func (c *Copier) mark(release bool) {
	c.fns.mark(release)
	c.params.mark(release)
	c.blocks.mark(release)
	c.instrs.mark(release)
	c.paramPtrs.mark(release)
	c.blockPtrs.mark(release)
	c.instrPtrs.mark(release)
	c.vals.mark(release)
	c.incs.mark(release)
	c.cases.mark(release)
	c.consts.mark(release)
}

// An arena carves windows from its chunk, buf, each with capacity equal
// to its length: an append to one reallocates it instead of writing
// into the next. The last function built begins at start, the window
// push fills at open; push replaces a full chunk by one of at least
// size elements, what the parser expects the function to take.
type arena[T any] struct {
	buf               []T
	start, open, size int
}

func (a *arena[T]) mark(release bool) {
	if release {
		a.buf = a.buf[:a.start]
	}
	a.start, a.open = len(a.buf), len(a.buf)
}

// room makes room for n elements from the open window on: a chunk too
// small is replaced, never grown, by one of max(n, 2·cap) (a zero
// arena's first is exact), the open window and the function being
// built moving to it; the windows carved before stay where they are.
func (a *arena[T]) room(n int) {
	if a.open+n > cap(a.buf) {
		a.buf = append(make([]T, 0, max(n, 2*cap(a.buf))), a.buf[a.open:]...)
		a.start, a.open = 0, 0
	}
}

// alloc carves the next n elements, nil when n is 0. They may be a
// released function's: the caller writes every one.
func (a *arena[T]) alloc(n int) []T {
	a.room(n)
	a.buf = a.buf[:len(a.buf)+n]
	return a.take()
}

// giveBack returns the last n elements carved, the unused tail of a
// window taken at an upper bound.
func (a *arena[T]) giveBack(n int) { a.buf, a.open = a.buf[:len(a.buf)-n], len(a.buf)-n }

// push appends v to the open window.
func (a *arena[T]) push(v T) {
	if len(a.buf) == cap(a.buf) {
		a.room(max(a.size, len(a.buf)-a.open+1))
	}
	a.buf = append(a.buf, v)
}

// take closes the open window and returns it, nil when empty.
func (a *arena[T]) take() []T {
	w := a.buf[a.open:len(a.buf):len(a.buf)]
	if a.open = len(a.buf); len(w) == 0 {
		return nil
	}
	return w
}

// of returns vs as one window.
func (a *arena[T]) of(vs ...T) []T {
	for _, v := range vs {
		a.push(v)
	}
	return a.take()
}

// Clone returns a deep copy of f, carved after the last function c
// built, or where it began when that was released.
func (c *Copier) Clone(f *Function) *Function {
	var instrs, args, succs, incs, cases int
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args, succs, incs, cases = args+len(in.Args), succs+len(in.Succs), incs+len(in.Incs), cases+len(in.Cases)
		}
	}
	c.mark(false)
	nf := &c.fns.alloc(1)[0]
	*nf = Function{NameStr: f.NameStr, RetTy: f.RetTy, Attrs: f.Attrs}
	paramSlab := c.params.alloc(len(f.Params))
	nf.Params = c.paramPtrs.alloc(len(f.Params))
	for i, p := range f.Params {
		paramSlab[i] = *p
		nf.Params[i] = &paramSlab[i]
	}
	blockSlab, blockPtrs := c.blocks.alloc(len(f.Blocks)), c.blockPtrs.alloc(len(f.Blocks)+succs)
	nf.Blocks = carve(&blockPtrs, len(f.Blocks))
	instrSlab, instrPtrs := c.instrs.alloc(instrs), c.instrPtrs.alloc(instrs)
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
	valSlab, incSlab, caseSlab := c.vals.alloc(args), c.incs.alloc(incs), c.cases.alloc(cases)
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
