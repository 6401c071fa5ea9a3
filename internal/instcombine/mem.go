package instcombine

import "veriopt/internal/ir"

// forwardLoads performs store-to-load forwarding within each basic
// block, the analogue of InstCombine's FindAvailableLoadedValue: a
// load from an alloca whose most recent same-block store is visible
// (with no intervening call that could access memory) is replaced by
// the stored value.
func forwardLoads(f *ir.Function) bool {
	changed := false
	// Forwarding cannot change which allocas escape: a load's uses only
	// ever take a value already stored, and storing an address escapes it.
	escaped := escapedAllocas(f)
	for _, b := range f.Blocks {
		// available maps an alloca to the last value stored into it in
		// this block, invalidated by calls (conservatively: a callee
		// could not access a non-escaping alloca, but an alloca whose
		// address flows into a call can change; track escapes).
		available := map[*ir.Instr]ir.Value{}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				if a, ok := directAlloca(in.Args[1]); ok {
					available[a] = in.Args[0]
				}
			case ir.OpLoad:
				if a, ok := directAlloca(in.Args[0]); ok {
					if v, have := available[a]; have && v.Type().Equal(in.Ty) {
						ir.ReplaceAllUses(f, in, v)
						changed = true
					}
				}
			case ir.OpCall:
				// Calls may write allocas whose address escaped.
				for a := range available {
					if escaped[a] {
						delete(available, a)
					}
				}
			}
		}
	}
	return changed
}

// removeDeadAllocas deletes allocas that are never loaded and never
// escape, together with their stores — LLVM InstCombine's
// isAllocSiteRemovable cleanup.
func removeDeadAllocas(f *ir.Function) bool {
	escaped := escapedAllocas(f)
	loaded := map[*ir.Instr]bool{}
	stores := map[*ir.Instr][]*ir.Instr{}
	var allocas []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpAlloca:
			allocas = append(allocas, in)
		case ir.OpLoad:
			if a, ok := directAlloca(in.Args[0]); ok {
				loaded[a] = true
			}
		case ir.OpStore:
			if a, ok := directAlloca(in.Args[1]); ok {
				stores[a] = append(stores[a], in)
			}
		}
	})
	changed := false
	for _, a := range allocas {
		if escaped[a] || loaded[a] {
			continue
		}
		for _, st := range stores[a] {
			ir.RemoveInstr(st)
			changed = true
		}
		// The alloca itself is removed by DCE once unused.
	}
	return changed
}

// directAlloca returns the alloca a pointer value directly denotes.
func directAlloca(p ir.Value) (*ir.Instr, bool) {
	in, ok := p.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return nil, false
	}
	return in, true
}

// escapedAllocas finds allocas whose address is used by anything
// other than a direct load or the pointer operand of a store.
func escapedAllocas(f *ir.Function) map[*ir.Instr]bool {
	escaped := map[*ir.Instr]bool{}
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		check := func(v ir.Value, isSafeUse bool) {
			if a, ok := directAlloca(v); ok && !isSafeUse {
				escaped[a] = true
			}
		}
		switch in.Op {
		case ir.OpLoad:
			// The address operand is a safe use.
		case ir.OpStore:
			check(in.Args[0], false) // storing the address escapes it
		default:
			for _, a := range in.Args {
				check(a, false)
			}
			for _, inc := range in.Incs {
				check(inc.Val, false)
			}
		}
	})
	return escaped
}
