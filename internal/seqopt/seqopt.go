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
//     each asked first whether it fires, then applied to fixpoint on a
//     clone and renumbered into canonical form so structurally
//     identical states print (and therefore cache) identically.
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
	// find reports whether run would change f, which it only reads; a
	// finder that answers no allocates nothing. A rule pass's finder is
	// its rule's Applicable, which may say yes where the rule then
	// declines (mem2reg promotes on a copy and keeps it only if it
	// verifies); instcombine's steps say yes exactly when they fire.
	// try asks it before copying f, except for a pass that promotes.
	find func(f *ir.Function) bool
	// fix rewrites g in place to the pass's fixpoint and reports
	// whether it changed anything, leaving g untouched if not.
	fix func(g *ir.Function) bool
	// confirm makes Apply test a change against its input: instcombine's
	// driver counts rule firings, and a run of them can end structurally
	// where it began. expand needs no such test: a result structurally
	// equal to the state it came from has that state's key, which is
	// seen.
	confirm bool
	// promotes marks the mem2reg pass: try's first round is
	// rewrite.PromoteCopy into the copier's copy, so the state is copied
	// once; the rounds after it go through the rule.
	promotes bool
}

// Apply returns a transformed copy of f and whether anything changed.
// The input is never mutated, and is copied only when the pass's
// finder fires; a changed output is renumbered into canonical form.
// Apply is deterministic: the same input always yields the same output.
func (p *Pass) Apply(f *ir.Function) (*ir.Function, bool) {
	var c ir.Copier
	g, changed := p.try(f, &c)
	if changed && p.confirm && ir.FuncsStructurallyEqual(f, g) {
		return f, false
	}
	return g, changed
}

// try is Apply without the confirm: a copy of f made by c and run
// through the pass, made only when the finder says it fires. A copy the
// pass leaves unchanged is released to c.
func (p *Pass) try(f *ir.Function, c *ir.Copier) (*ir.Function, bool) {
	if p.promotes {
		return promote(f, c)
	}
	if !p.find(f) {
		return f, false
	}
	if g := c.Clone(f); p.run(g) {
		return g, true
	}
	c.Release()
	return f, false
}

// promote is try for the mem2reg pass: the first round promotes into
// c's copy of f (or copies nothing, or releases the copy, and reports
// false), and the rounds after it rewrite that copy in place through
// the rule, all of them together at most maxFixpointIters. It is called
// directly, not through a Pass field, so that Apply's copier stays on
// Apply's stack.
func promote(f *ir.Function, c *ir.Copier) (*ir.Function, bool) {
	g, ok := rewrite.PromoteCopy(c, f)
	if !ok {
		return f, false
	}
	for i := 1; i < maxFixpointIters && rewrite.Mem2Reg.Apply(g, nil); i++ {
	}
	ir.RenumberFunc(g)
	return g, true
}

// run takes g itself to the pass's fixpoint, renumbers it if that
// changed anything, and reports whether it did. False leaves g
// untouched — same text, same instruction objects in the same slots
// (TestInPlaceFalseLeavesFunctionUntouched).
func (p *Pass) run(g *ir.Function) bool {
	changed := p.fix(g)
	if changed {
		ir.RenumberFunc(g)
	}
	return changed
}

// maxFixpointIters caps per-pass fixpoint iteration, mirroring
// instcombine's own safety cap.
const maxFixpointIters = 64

// fixpointPass lifts a single mutating step and its finder into a
// Pass: apply the step until it stops firing.
func fixpointPass(name string, find, step func(*ir.Function) bool) *Pass {
	return &Pass{name: name, find: find, fix: func(g *ir.Function) bool {
		changed := false
		for i := 0; i < maxFixpointIters && step(g); i++ {
			changed = true
		}
		return changed
	}}
}

// stepPass lifts one of instcombine's steps, which is its own finder
// with act false, into a fixpoint Pass.
func stepPass(name string, step func(f *ir.Function, act bool) bool) *Pass {
	return fixpointPass(name,
		func(f *ir.Function) bool { return step(f, false) },
		func(g *ir.Function) bool { return step(g, true) })
}

// instcombinePass wraps the full reference pipeline (the corpus
// labeler) as one action, confirmed against its input.
func instcombinePass() *Pass {
	return &Pass{name: "instcombine", confirm: true,
		find: func(f *ir.Function) bool { return instcombine.RunInPlace(f, false) },
		fix:  func(g *ir.Function) bool { return instcombine.RunInPlace(g, true) }}
}

// rulePass lifts one of internal/rewrite's sound beyond-instcombine
// rules (simplifycfg/mem2reg-flavoured) into a fixpoint Pass found by
// the rule's Applicable. Those rules ignore their RNG parameter, so the
// lift stays deterministic.
func rulePass(name string, rule *rewrite.Rule) *Pass {
	return fixpointPass(name, rule.Applicable, func(g *ir.Function) bool { return rule.Apply(g, nil) })
}

// registry holds the passes, built once per process: they are
// stateless, and every search asks for them.
var registry = sync.OnceValue(func() []*Pass {
	mem2reg := rulePass("mem2reg", rewrite.Mem2Reg)
	mem2reg.promotes = true
	return []*Pass{
		stepPass("combine", instcombine.StepFirst),
		stepPass("forward-loads", instcombine.ForwardLoadsStep),
		stepPass("drop-dead-allocas", instcombine.RemoveDeadAllocasStep),
		instcombinePass(),
		mem2reg,
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
