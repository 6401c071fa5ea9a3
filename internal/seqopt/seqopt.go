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
//     each one step in instcombine's shape, func(f, act bool) bool,
//     asked first with act false whether it fires, then applied to its
//     fixpoint on a clone and renumbered into canonical form so
//     structurally identical states print (and therefore cache)
//     identically.
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
//     token policy, over pass indices plus STOP. It trains through
//     grpo.Trainer, the token policy's trainer, built by
//     grpo.NewSequenceTrainer, with the paper's verified latency
//     reward: the oracle gates every reward, so an unverified sequence
//     earns exactly zero.
package seqopt

import (
	"slices"

	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// Pass is one deterministic whole-function transformation in the
// sequence action space: a named step, run to its fixpoint. Passes come
// from Registry.
type Pass struct {
	name string
	// step is the pass in instcombine's shape (rewrite's package doc).
	// With act false it is the finder try asks before copying f, unless
	// the pass promotes; a no allocates nothing. A rule's finder may say
	// yes where acting then declines (mem2reg keeps a promotion only if
	// it verifies); instcombine's steps say yes exactly when they fire.
	step func(f *ir.Function, act bool) bool
	// confirm marks the instcombine pipeline, whose step is already its
	// own fixpoint: run takes it once, and Apply tests a change against
	// its input, since the driver counts rule firings and a run of them
	// can end structurally where it began. expand needs no such test: a
	// result structurally equal to the state it came from has that
	// state's key, which is seen.
	confirm bool
	// promotes marks the mem2reg pass: try's first round is
	// rewrite.PromoteCopy into the copier's copy, so the state is copied
	// once; the rounds after it go through the step.
	promotes bool
}

// Apply returns a transformed copy of f and whether anything changed.
// The input is never mutated, and is copied only when the pass's
// finder fires; a changed output is renumbered into canonical form.
// Apply is deterministic: the same input always yields the same output.
func (p *Pass) Apply(f *ir.Function) (*ir.Function, bool) {
	return p.apply(f, new(ir.Copier))
}

// apply is Apply with the copy made by c, which a rollout probing every
// pass releases after each.
func (p *Pass) apply(f *ir.Function, c *ir.Copier) (*ir.Function, bool) {
	g, changed := p.try(f, c)
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
	if !p.step(f, false) {
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
	for i := 1; i < maxFixpointIters && rewrite.Mem2Reg.Step(g, true); i++ {
	}
	ir.RenumberFunc(g)
	return g, true
}

// run takes g itself to the pass's fixpoint, its step applied until it
// stops firing (once for a pass that confirms), renumbers it if that
// changed anything, and reports whether it did. False leaves g
// untouched — same text, same instruction objects in the same slots
// (TestInPlaceFalseLeavesFunctionUntouched).
func (p *Pass) run(g *ir.Function) bool {
	changed := false
	for i := 0; i < maxFixpointIters && p.step(g, true); i++ {
		changed = true
		if p.confirm {
			break
		}
	}
	if changed {
		ir.RenumberFunc(g)
	}
	return changed
}

// maxFixpointIters caps per-pass fixpoint iteration, mirroring
// instcombine's own safety cap.
const maxFixpointIters = 64

// registry holds the passes: they are stateless, and every search
// reads them. The first three are instcombine's steps, the fourth its
// whole pipeline, the last four internal/rewrite's sound
// beyond-instcombine rules (simplifycfg/mem2reg-flavoured), whose Step
// passes no RNG, so the passes stay deterministic.
var registry = []*Pass{
	{name: "combine", step: instcombine.StepFirst},
	{name: "forward-loads", step: instcombine.ForwardLoadsStep},
	{name: "drop-dead-allocas", step: instcombine.RemoveDeadAllocasStep},
	{name: "instcombine", step: instcombine.RunInPlace, confirm: true},
	{name: "mem2reg", step: rewrite.Mem2Reg.Step, promotes: true},
	{name: "fold-branches", step: rewrite.FoldConstBranch.Step},
	{name: "merge-blocks", step: rewrite.MergeBlocks.Step},
	{name: "if-to-select", step: rewrite.DiamondToSelect.Step},
}

// Registry returns the pass action space in stable order. Policy
// action indices and search tie-breaking depend on this ordering, so
// new passes must be appended, never inserted. The slice is the
// caller's own; the passes in it are shared.
func Registry() []*Pass { return slices.Clone(registry) }

// passNames returns the registry names in order.
func passNames() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.name
	}
	return out
}
