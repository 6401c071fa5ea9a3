package ir

import (
	"strconv"
	"strings"
	"unicode"
)

// CloneFunc produces a deep copy of a function. All instructions,
// blocks and parameters are fresh objects; constants are shared (they
// are immutable). Every slice is allocated at its final length (a
// pass-search state is one clone per pass application) and left nil
// where the original's is empty.
func CloneFunc(f *Function) *Function {
	nf := &Function{NameStr: f.NameStr, RetTy: f.RetTy, Attrs: f.Attrs}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, p := range f.Params {
		nf.Params = append(nf.Params, &Param{NameStr: p.NameStr, Ty: p.Ty, Noundef: p.Noundef})
	}
	// vmap is sized to its entries exactly: a search's clones are tiny,
	// and a hint past the single group of a small map buys a table.
	results := 0
	for _, b := range f.Blocks {
		nb := &Block{NameStr: b.NameStr, Parent: nf}
		nf.Blocks = append(nf.Blocks, nb)
		bmap[b] = nb
		for _, in := range b.Instrs {
			if in.HasResult() {
				results++
			}
		}
	}
	vmap := make(map[*Instr]*Instr, results)
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
	for bi, b := range f.Blocks {
		nb := nf.Blocks[bi]
		if len(b.Instrs) > 0 {
			nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		}
		for _, in := range b.Instrs {
			ni := &Instr{
				Op: in.Op, NameStr: in.NameStr, Ty: in.Ty,
				Pred: in.Pred, Flags: in.Flags, AllocTy: in.AllocTy, Callee: in.Callee,
				Cases: append([]*Const(nil), in.Cases...),
			}
			nb.Append(ni)
			if in.HasResult() {
				vmap[in] = ni
			}
		}
	}
	// Second sweep resolves operands (handles forward refs through phis).
	for bi, b := range f.Blocks {
		nb := nf.Blocks[bi]
		for ii, in := range b.Instrs {
			ni := nb.Instrs[ii]
			if len(in.Args) > 0 {
				ni.Args = make([]Value, len(in.Args))
			}
			for i, a := range in.Args {
				ni.Args[i] = mapVal(a)
			}
			if len(in.Succs) > 0 {
				ni.Succs = make([]*Block, len(in.Succs))
			}
			for i, s := range in.Succs {
				ni.Succs[i] = bmap[s]
			}
			if len(in.Incs) > 0 {
				ni.Incs = make([]Incoming, len(in.Incs))
			}
			for i, inc := range in.Incs {
				ni.Incs[i] = Incoming{Val: mapVal(inc.Val), Block: bmap[inc.Block]}
			}
		}
	}
	return nf
}

// canonicalNumbers calls fn with the name field of every param, block
// and result of f and its number in the sequential scheme clang uses:
// params, then blocks and the results in them, in layout order (the
// block of a single-block function is "entry", entryNum, instead).
// Under these names structurally identical functions print identically.
func canonicalNumbers(f *Function, fn func(v any, name *string, n int)) {
	next := 0
	number := func(v any, name *string) { fn(v, name, next); next++ }
	for _, p := range f.Params {
		number(p, &p.NameStr)
	}
	for _, b := range f.Blocks {
		if len(f.Blocks) == 1 {
			fn(b, &b.NameStr, entryNum)
		} else {
			number(b, &b.NameStr)
		}
		for _, in := range b.Instrs {
			if in.HasResult() {
				number(in, &in.NameStr)
			}
		}
	}
}

const entryNum = -1

// RenumberFunc renames f's local values and blocks into that scheme.
func RenumberFunc(f *Function) {
	canonicalNumbers(f, func(_ any, name *string, n int) {
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

// HasSideEffects reports whether removing the instruction could change
// observable behaviour (stores, calls, terminators, and
// possibly-trapping division).
func HasSideEffects(in *Instr, m *Module) bool {
	switch in.Op {
	case OpStore, OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	case OpCall:
		if m != nil {
			if d := m.Decl(in.Callee); d != nil && d.ReadNone {
				return false
			}
		}
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
func DeadCodeElim(f *Function, m *Module) int {
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
			if _, ok := used[in]; !ok && !HasSideEffects(in, m) {
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
