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
// (they are immutable), and so is any value that is not f's own.
func CloneFunc(f *Function) *Function {
	var instrs, results, args, succs, incs, cases int
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			args, succs, incs, cases = args+len(in.Args), succs+len(in.Succs), incs+len(in.Incs), cases+len(in.Cases)
			if in.HasResult() {
				results++
			}
		}
	}
	nf := &Function{NameStr: f.NameStr, RetTy: f.RetTy, Attrs: f.Attrs}
	paramSlab, paramPtrs := make([]Param, len(f.Params)), make([]*Param, len(f.Params))
	nf.Params = carve(&paramPtrs, len(f.Params))
	for i, p := range f.Params {
		paramSlab[i] = *p
		nf.Params[i] = &paramSlab[i]
	}
	blockSlab, blockPtrs := make([]Block, len(f.Blocks)), make([]*Block, len(f.Blocks)+succs)
	nf.Blocks = carve(&blockPtrs, len(f.Blocks))
	instrSlab, instrPtrs := make([]Instr, instrs), make([]*Instr, instrs)
	bmap := make(map[*Block]*Block, len(f.Blocks))
	// vmap is sized to its entries exactly: a search's clones are tiny,
	// and a hint past the single group of a small map buys a table.
	vmap := make(map[*Instr]*Instr, results)
	for bi, b := range f.Blocks {
		nb := &blockSlab[bi]
		*nb = Block{NameStr: b.NameStr, Instrs: carve(&instrPtrs, len(b.Instrs)), Parent: nf}
		nf.Blocks[bi], bmap[b] = nb, nb
		for ii, in := range b.Instrs {
			ni := &carve(&instrSlab, 1)[0]
			*ni = *in // every list is replaced below
			ni.Parent, nb.Instrs[ii] = nb, ni
			if in.HasResult() {
				vmap[in] = ni
			}
		}
	}
	// An instruction or parameter of f maps to its copy (a parameter by
	// position); anything else, a value of another function included,
	// stays shared.
	mapVal := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			if ni, ok := vmap[x]; ok {
				return ni
			}
		case *Param:
			for i, p := range f.Params {
				if p == x {
					return nf.Params[i]
				}
			}
		}
		return v
	}
	// Second sweep resolves operands (handles forward refs through phis).
	valSlab, incSlab, caseSlab := make([]Value, args), make([]Incoming, incs), make([]*Const, cases)
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			ni := nf.Blocks[bi].Instrs[ii]
			ni.Args, ni.Succs = carve(&valSlab, len(in.Args)), carve(&blockPtrs, len(in.Succs))
			ni.Incs, ni.Cases = carve(&incSlab, len(in.Incs)), carve(&caseSlab, len(in.Cases))
			for i, a := range in.Args {
				ni.Args[i] = mapVal(a)
			}
			for i, s := range in.Succs {
				ni.Succs[i] = bmap[s]
			}
			for i, inc := range in.Incs {
				ni.Incs[i] = Incoming{Val: mapVal(inc.Val), Block: bmap[inc.Block]}
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
	b := in.Parent
	if b == nil {
		return
	}
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			in.Parent = nil
			return
		}
	}
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
// fixpoint, returning the number removed.
func DeadCodeElim(f *Function) int {
	removed := 0
	used := make(map[*Instr]struct{}, f.NumInstrs())
	for {
		clear(used)
		f.ForEachInstr(func(_ *Block, in *Instr) {
			for _, a := range in.Args {
				if def, ok := a.(*Instr); ok {
					used[def] = struct{}{}
				}
			}
			for _, inc := range in.Incs {
				if def, ok := inc.Val.(*Instr); ok {
					used[def] = struct{}{}
				}
			}
		})
		var dead []*Instr
		f.ForEachInstr(func(_ *Block, in *Instr) {
			if !in.HasResult() {
				return
			}
			if _, ok := used[in]; !ok && !hasSideEffects(in) {
				dead = append(dead, in)
			}
		})
		if len(dead) == 0 {
			return removed
		}
		for _, in := range dead {
			RemoveInstr(in)
			removed++
		}
	}
}

// HasDeadCode reports whether DeadCodeElim would remove anything from
// f, which it only reads, allocating nothing.
func HasDeadCode(f *Function) bool {
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() && !hasSideEffects(in) && !used(f, bi, in) {
				return true
			}
		}
	}
	return false
}

// used reports whether anything in f names def, which sits in block
// bi: the search starts there, where most uses are, and wraps around.
func used(f *Function, bi int, def *Instr) bool {
	for k := range f.Blocks {
		for _, in := range f.Blocks[(bi+k)%len(f.Blocks)].Instrs {
			if slices.Contains(in.Args, Value(def)) {
				return true
			}
			for _, inc := range in.Incs {
				if inc.Val == Value(def) {
					return true
				}
			}
		}
	}
	return false
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
