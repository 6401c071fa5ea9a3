package instcombine

import "veriopt/internal/ir"

// The steps below take act: true applies the step, false is its
// finder, which runs the same matching with the mutation points
// skipped and so fires exactly when acting would. A finder reads f
// only, and one that does not fire allocates nothing, so asking a
// step whether it applies needs no copy of the function.

// StepFirst applies one instcombine micro-step at the first position,
// in layout order, where one fires — the algebraic rule subset of the
// reference pass, without its memory cleanups. It probes f itself: a
// stepAt that does not fire leaves the function untouched (pinned by
// TestStepAtFalseLeavesFunctionUntouched), so trying needs no clone.
func StepFirst(f *ir.Function, act bool) bool {
	for bi := range f.Blocks {
		for ii := range f.Blocks[bi].Instrs {
			if stepAt(f, bi, ii, act) {
				return true
			}
		}
	}
	return false
}

// stepAt applies one instcombine micro-step (simplify or rewrite) at
// the given position, mutating f in place when act is set. It reports
// whether anything changed, or with act false whether anything would.
// Unlike Run, it performs no fixpoint iteration, no memory forwarding,
// and no DCE beyond replacing the single value — it is the unit of the
// simulated LLM's action space.
func stepAt(f *ir.Function, bi, ii int, act bool) bool {
	if bi >= len(f.Blocks) || ii >= len(f.Blocks[bi].Instrs) {
		return false
	}
	b := f.Blocks[bi]
	in := b.Instrs[ii]
	if !in.HasResult() {
		return false
	}
	c := &combiner{fn: f, find: !act}
	v := simplify(c, in)
	if v == nil || v == ir.Value(in) {
		idx := ii
		v = c.rewrite(b, &idx, in)
	}
	if v == nil || v == ir.Value(in) {
		return c.mutated
	}
	if act {
		ir.ReplaceAllUses(f, in, v)
		ir.DeadCodeElim(f)
	}
	return true
}

// ForwardLoadsStep is one round of store-to-load forwarding for the
// policy action space. Reports whether anything changed.
func ForwardLoadsStep(f *ir.Function, act bool) bool {
	if !forwardLoads(f, act) {
		return false
	}
	if act {
		ir.DeadCodeElim(f)
	}
	return true
}

// RemoveDeadAllocasStep is the dead-alloca cleanup for the policy
// action space. Reports whether anything changed.
func RemoveDeadAllocasStep(f *ir.Function, act bool) bool {
	if !removeDeadAllocas(f, act) {
		return false
	}
	if act {
		ir.DeadCodeElim(f)
	}
	return true
}
