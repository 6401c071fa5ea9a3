package instcombine

import "veriopt/internal/ir"

// StepFirst applies one instcombine micro-step at the first position,
// in layout order, where one fires — the algebraic rule subset of the
// reference pass, without its memory cleanups. It probes f itself: a
// stepAt that does not fire leaves the function untouched (pinned by
// TestStepAtFalseLeavesFunctionUntouched), so trying needs no clone.
func StepFirst(f *ir.Function) bool {
	for bi := range f.Blocks {
		for ii := range f.Blocks[bi].Instrs {
			if stepAt(f, bi, ii) {
				return true
			}
		}
	}
	return false
}

// stepAt applies one instcombine micro-step (simplify or rewrite) at
// the given position, mutating f in place. It reports whether
// anything changed. Unlike Run, it performs no fixpoint iteration, no
// memory forwarding, and no DCE beyond replacing the single value —
// it is the unit of the simulated LLM's action space.
func stepAt(f *ir.Function, bi, ii int) bool {
	if bi >= len(f.Blocks) || ii >= len(f.Blocks[bi].Instrs) {
		return false
	}
	b := f.Blocks[bi]
	in := b.Instrs[ii]
	if !in.HasResult() {
		return false
	}
	c := &combiner{fn: f}
	if v := simplify(c, in); v != nil && v != ir.Value(in) {
		ir.ReplaceAllUses(f, in, v)
		ir.DeadCodeElim(f, nil)
		return true
	}
	idx := ii
	if v := c.rewrite(b, &idx, in); v != nil && v != ir.Value(in) {
		ir.ReplaceAllUses(f, in, v)
		ir.DeadCodeElim(f, nil)
		return true
	}
	return c.mutated
}

// ForwardLoadsStep exposes one round of store-to-load forwarding for
// the policy action space. Reports whether anything changed.
func ForwardLoadsStep(f *ir.Function) bool {
	if forwardLoads(f) {
		ir.DeadCodeElim(f, nil)
		return true
	}
	return false
}

// RemoveDeadAllocasStep exposes the dead-alloca cleanup for the
// policy action space. Reports whether anything changed.
func RemoveDeadAllocasStep(f *ir.Function) bool {
	if removeDeadAllocas(f) {
		ir.DeadCodeElim(f, nil)
		return true
	}
	return false
}
