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
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// Pass is one deterministic whole-function transformation in the
// sequence action space.
type Pass struct {
	Name string
	// Apply returns a transformed copy of f and whether anything
	// changed. The input is never mutated; a changed output is
	// renumbered into canonical form. Apply is deterministic: the same
	// input always yields the same output.
	Apply func(f *ir.Function) (*ir.Function, bool)
}

// maxFixpointIters caps per-pass fixpoint iteration, mirroring
// instcombine's own safety cap.
const maxFixpointIters = 64

// fixpointPass lifts a single mutating step into a Pass: clone, apply
// the step until it stops firing, renumber.
func fixpointPass(name string, step func(*ir.Function) bool) *Pass {
	return &Pass{Name: name, Apply: func(f *ir.Function) (*ir.Function, bool) {
		g := ir.CloneFunc(f)
		changed := false
		for i := 0; i < maxFixpointIters; i++ {
			if !step(g) {
				break
			}
			changed = true
		}
		if !changed {
			return f, false
		}
		ir.RenumberFunc(g)
		return g, true
	}}
}

// instcombinePass wraps the full reference pipeline (the corpus
// labeler) as one action.
func instcombinePass() *Pass {
	return &Pass{Name: "instcombine", Apply: func(f *ir.Function) (*ir.Function, bool) {
		g := instcombine.Run(f)
		if ir.FuncsStructurallyEqual(f, g) {
			return f, false
		}
		return g, true
	}}
}

// extraPass lifts one of internal/rewrite's sound beyond-instcombine
// rules (simplifycfg/mem2reg-flavoured) into a fixpoint Pass. The
// Extra rules ignore their RNG parameter, so the lift stays
// deterministic.
func extraPass(name, ruleName string) *Pass {
	for _, r := range rewrite.Extra() {
		if r.Name == ruleName {
			rule := r
			return fixpointPass(name, func(f *ir.Function) bool {
				return rule.Apply(f, nil)
			})
		}
	}
	panic("seqopt: unknown rewrite rule " + ruleName)
}

// Registry returns the pass action space in stable order. Policy
// action indices and search tie-breaking depend on this ordering, so
// new passes must be appended, never inserted.
func Registry() []*Pass {
	return []*Pass{
		fixpointPass("combine", instcombine.StepFirst),
		fixpointPass("forward-loads", instcombine.ForwardLoadsStep),
		fixpointPass("drop-dead-allocas", instcombine.RemoveDeadAllocasStep),
		instcombinePass(),
		extraPass("mem2reg", "extra-mem2reg"),
		extraPass("fold-branches", "extra-fold-const-branch"),
		extraPass("merge-blocks", "extra-merge-blocks"),
		extraPass("if-to-select", "extra-diamond-to-select"),
	}
}

// PassNames returns the registry names in order.
func PassNames() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, p := range reg {
		out[i] = p.Name
	}
	return out
}
