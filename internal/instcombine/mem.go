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
			a := ir.AccessedAlloca(in)
			if a == nil {
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
			if ir.UsesOfAlloca(f, a).Escapes {
				return nil
			}
		}
	}
	return nil
}

// removeDeadAllocas deletes the stores to allocas that are never
// loaded and never escape — LLVM InstCombine's isAllocSiteRemovable
// cleanup; DCE removes the allocas once unused. The dead set is decided
// before anything is removed: a removed store may have been another
// alloca's only escape. With act false it only reports whether there is
// a store to remove.
func removeDeadAllocas(f *ir.Function, act bool) bool {
	var buf [16]*ir.Instr // the dead set, on the stack up to 16 allocas
	dead := buf[:0]
	for _, b := range f.Blocks {
		for _, a := range b.Instrs {
			if a.Op != ir.OpAlloca {
				continue
			}
			if u := ir.UsesOfAlloca(f, a); u.Loads > 0 || u.Stores == 0 || u.Escapes {
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
	for _, b := range f.Blocks {
		for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
			if in := b.Instrs[ii]; in.Op == ir.OpStore && slices.Contains(dead, ir.AccessedAlloca(in)) {
				ir.RemoveInstr(in)
			}
		}
	}
	return true
}
