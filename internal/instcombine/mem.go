package instcombine

import (
	"slices"

	"veriopt/internal/ir"
)

// forwardLoads performs store-to-load forwarding within each basic
// block, the analogue of InstCombine's FindAvailableLoadedValue: a
// load from an alloca whose most recent same-block store is visible
// (with no intervening call that could access memory) is replaced by
// the stored value. With act false it only reports whether a load
// would be.
func forwardLoads(f *ir.Function, act bool) bool {
	changed := false
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpLoad {
				continue
			}
			a, ok := directAlloca(in.Args[0])
			if !ok {
				continue
			}
			v := storedBefore(f, b, i, a)
			if v == nil || !v.Type().Equal(in.Ty) {
				continue
			}
			if !act {
				return true
			}
			ir.ReplaceAllUses(f, in, v)
			changed = true
		}
	}
	return changed
}

// storedBefore returns the value the last store to alloca a before
// position i of block b stored, or nil when there is none or a call
// since could have written a (its address escaped). Forwarding cannot
// change which allocas escape: a load's uses only ever take a value
// already stored, and storing an address escapes it.
func storedBefore(f *ir.Function, b *ir.Block, i int, a *ir.Instr) ir.Value {
	for j := i - 1; j >= 0; j-- {
		switch in := b.Instrs[j]; in.Op {
		case ir.OpStore:
			if in.Args[1] == ir.Value(a) {
				return in.Args[0]
			}
		case ir.OpCall:
			if escapes(f, a) {
				return nil
			}
		}
	}
	return nil
}

// removeDeadAllocas deletes the stores to allocas that are never
// loaded and never escape — LLVM InstCombine's isAllocSiteRemovable
// cleanup; DCE removes the allocas once unused. The dead set is decided
// before anything is removed. With act false it only reports whether
// there is a store to remove.
func removeDeadAllocas(f *ir.Function, act bool) bool {
	var dead []*ir.Instr
	for _, b := range f.Blocks {
		for _, a := range b.Instrs {
			if a.Op != ir.OpAlloca || !deadAlloca(f, a) {
				continue
			}
			if !act {
				return true
			}
			dead = append(dead, a)
		}
	}
	if len(dead) == 0 {
		return false
	}
	var stores []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpStore {
			if a, ok := directAlloca(in.Args[1]); ok && slices.Contains(dead, a) {
				stores = append(stores, in)
			}
		}
	})
	for _, st := range stores {
		ir.RemoveInstr(st)
	}
	return true
}

// deadAlloca reports whether a is stored to but never loaded and never
// escapes.
func deadAlloca(f *ir.Function, a *ir.Instr) bool {
	stored := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				if in.Args[0] == ir.Value(a) {
					return false
				}
			case ir.OpStore:
				stored = stored || in.Args[1] == ir.Value(a)
			}
		}
	}
	return stored && !escapes(f, a)
}

// directAlloca returns the alloca a pointer value directly denotes.
func directAlloca(p ir.Value) (*ir.Instr, bool) {
	in, ok := p.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return nil, false
	}
	return in, true
}

// escapes reports whether alloca a's address is used by anything other
// than a direct load or the pointer operand of a store.
func escapes(f *ir.Function, a *ir.Instr) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				// The address operand is a safe use.
			case ir.OpStore:
				if in.Args[0] == ir.Value(a) { // storing the address escapes it
					return true
				}
			default:
				if slices.Contains(in.Args, ir.Value(a)) {
					return true
				}
				for _, inc := range in.Incs {
					if inc.Val == ir.Value(a) {
						return true
					}
				}
			}
		}
	}
	return false
}
