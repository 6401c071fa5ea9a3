// Package seqopt is the pass-sequence optimization workload built on
// the verified substrate: instead of emitting IR text token by token
// (the peephole workload of internal/policy), the unit of action is a
// whole compiler pass, and an episode is an ordered pass list applied
// to one function — the Compiler-R1-style phase-ordering problem.
//
// The package provides three layers:
//
//   - A pass registry (Registry): deterministic whole-function
//     transformations with stable names — instcombine rule subsets,
//     the full instcombine reference pipeline, and the
//     simplifycfg/mem2reg-flavoured passes from internal/rewrite —
//     each applied to fixpoint on a clone and renumbered into
//     canonical form so structurally identical states print (and
//     therefore cache) identically.
//
//   - Search baselines (Greedy, Beam): classic phase-ordering search
//     over the registry where every explored state is admitted only
//     if the equivalence oracle proves it refines the input. All
//     queries key on the (input, state) canonical texts, so the
//     verdict cache (and the durable store under it) memoizes
//     intermediate results: re-explored prefixes — within one search,
//     across beam rounds, and across whole re-runs — cost zero solver
//     time.
//
//   - A sequence policy (Model): policy.Linear, the scorer of the
//     token policy, over pass indices plus STOP. It trains under
//     grpo.SeqTrainer (the same rollout core as grpo.Trainer) with the
//     paper's verified latency reward: the oracle gates every reward,
//     so an unverified sequence earns exactly zero.
package seqopt

import (
	"slices"
	"sync"

	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// Pass is one deterministic whole-function transformation in the
// sequence action space. Passes come from Registry.
type Pass struct {
	name string
	// Apply returns a transformed copy of f and whether anything
	// changed. The input is never mutated; a changed output is
	// renumbered into canonical form. Apply is deterministic: the same
	// input always yields the same output.
	Apply func(f *ir.Function) (*ir.Function, bool)
	// run is Apply without the copy: it takes g itself to the pass's
	// fixpoint, renumbers it if that changed anything, and reports
	// whether it did. False leaves g untouched — same text, same
	// instruction objects in the same slots — so expand can offer one
	// copy of a state to pass after pass
	// (TestInPlaceFalseLeavesFunctionUntouched).
	run func(g *ir.Function) bool
}

// maxFixpointIters caps per-pass fixpoint iteration, mirroring
// instcombine's own safety cap.
const maxFixpointIters = 64

// newPass builds a Pass from fix, which rewrites a function in place
// to the pass's fixpoint and reports whether it changed anything,
// leaving it untouched if not.
func newPass(name string, fix func(*ir.Function) bool) *Pass {
	p := &Pass{name: name}
	p.run = func(g *ir.Function) bool {
		changed := fix(g)
		if changed {
			ir.RenumberFunc(g)
		}
		return changed
	}
	p.Apply = func(f *ir.Function) (*ir.Function, bool) {
		if g := ir.CloneFunc(f); p.run(g) {
			return g, true
		}
		return f, false
	}
	return p
}

// fixpointPass lifts a single mutating step into a Pass: apply the
// step until it stops firing.
func fixpointPass(name string, step func(*ir.Function) bool) *Pass {
	return newPass(name, func(g *ir.Function) bool {
		changed := false
		for i := 0; i < maxFixpointIters && step(g); i++ {
			changed = true
		}
		return changed
	})
}

// instcombinePass wraps the full reference pipeline (the corpus
// labeler) as one action. Its driver counts rule firings, and a run of
// them can end structurally where it began, so Apply confirms a change
// against its input. expand needs no such test: a result structurally
// equal to the state it came from has that state's key, which is seen.
func instcombinePass() *Pass {
	p := newPass("instcombine", instcombine.RunInPlace)
	apply := p.Apply
	p.Apply = func(f *ir.Function) (*ir.Function, bool) {
		if g, changed := apply(f); changed && !ir.FuncsStructurallyEqual(f, g) {
			return g, true
		}
		return f, false
	}
	return p
}

// rulePass lifts one of internal/rewrite's sound beyond-instcombine
// rules (simplifycfg/mem2reg-flavoured) into a fixpoint Pass. Those
// rules ignore their RNG parameter, so the lift stays deterministic.
func rulePass(name string, rule *rewrite.Rule) *Pass {
	return fixpointPass(name, func(f *ir.Function) bool { return rule.Apply(f, nil) })
}

// registry holds the passes, built once per process: they are
// stateless, and every search asks for them.
var registry = sync.OnceValue(func() []*Pass {
	return []*Pass{
		fixpointPass("combine", instcombine.StepFirst),
		fixpointPass("forward-loads", instcombine.ForwardLoadsStep),
		fixpointPass("drop-dead-allocas", instcombine.RemoveDeadAllocasStep),
		instcombinePass(),
		rulePass("mem2reg", rewrite.Mem2Reg),
		rulePass("fold-branches", rewrite.FoldConstBranch),
		rulePass("merge-blocks", rewrite.MergeBlocks),
		rulePass("if-to-select", rewrite.DiamondToSelect),
	}
})

// Registry returns the pass action space in stable order. Policy
// action indices and search tie-breaking depend on this ordering, so
// new passes must be appended, never inserted. The slice is the
// caller's own; the passes in it are shared.
func Registry() []*Pass { return slices.Clone(registry()) }

// passNames returns the registry names in order.
func passNames() []string {
	reg := registry()
	out := make([]string, len(reg))
	for i, p := range reg {
		out[i] = p.name
	}
	return out
}
