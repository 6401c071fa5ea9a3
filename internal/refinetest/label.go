package refinetest

import (
	"math/rand"

	"veriopt/internal/interp"
	"veriopt/internal/ir"
)

// Label is the verdict a labelled target must get, decided without a
// verifier.
type Label int

const (
	// Refines: the reference output itself, equivalent by construction.
	Refines Label = iota
	// Distinguished: an unsound rewrite of the reference that an input
	// distinguishes.
	Distinguished
	// Unparsable: damaged reference text that the parser or the IR
	// verifier rejects.
	Unparsable
)

// Rule is what the labeller needs of a rewrite rule; *rewrite.Rule is
// one. A constraint, not an import: rewrite imports instcombine, whose
// in-package tests import this package.
type Rule interface {
	Applicable(f *ir.Function) bool
	Apply(f *ir.Function, rng *rand.Rand) bool
	ApplyText(text string, rng *rand.Rand) string
}

// Shares of the model-output mix the benchmark sends the verifier: half
// the candidates are right, a third are plausible miscompiles, the rest
// do not parse.
const (
	fracRefines       = 0.50
	fracDistinguished = 0.35
)

// probeTries is how many inputs the labeller runs the source on.
const probeTries = 16

// probe is one input on which the source is fully defined (no UB, no
// poison return), with the value it returns there.
type probe struct {
	args []interp.Val
	ret  uint64
}

// Target is the benchmark's labeller for op i of the corpus of seed: the
// target it sends against the source src, whose reference output is ref
// (printed as refText), with the label it must get. It draws from the
// op's own stream, seeded with seed<<20 ^ i, in bench/corpus.go's order,
// so the corpus it builds is the benchmark's. A kind it cannot make is
// drawn again: Distinguished when the source is defined on none of its
// probes or no unsound rule yields a target that is defined on one and
// returns other bits there; Unparsable when every corruption still
// parses.
func Target[R Rule](seed int64, i int, src, ref *ir.Function, refText string, unsound, corrupt []R) (string, Label) {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(i)))
	var probes []probe // made on first need
	for {
		switch x := rng.Float64(); {
		case x < fracRefines:
			return refText, Refines
		case x < fracRefines+fracDistinguished:
			if probes == nil {
				probes = definedRuns(src, rng)
			}
			if t, ok := miscompile(ref, probes, unsound, rng); ok {
				return t, Distinguished
			}
		default:
			if t, ok := garble(refText, corrupt, rng); ok {
				return t, Unparsable
			}
		}
	}
}

// definedRuns runs src on probeTries drawn inputs and keeps those it is
// fully defined on. The slice is non-nil even when empty.
func definedRuns(src *ir.Function, rng *rand.Rand) []probe {
	out := make([]probe, 0, probeTries)
	for try := 0; try < probeTries; try++ {
		args := draw(src, rng)
		if o, err := interp.Run(src, args, interp.DefaultConfig()); err == nil && !o.UB && !o.Ret.Poison {
			out = append(out, probe{args, o.Ret.Bits})
		}
	}
	return out
}

// miscompile applies one unsound rewrite to a copy of ref and keeps it
// only if, on one of the source's defined runs, the result is also fully
// defined and returns other bits: a refinement violation that needs no
// call-trace or poison reasoning to see.
func miscompile[R Rule](ref *ir.Function, probes []probe, rules []R, rng *rand.Rand) (string, bool) {
	if len(probes) == 0 {
		return "", false
	}
	for _, ri := range rng.Perm(len(rules)) {
		rule := rules[ri]
		if !rule.Applicable(ref) {
			continue
		}
		g := ir.CloneFunc(ref)
		if !rule.Apply(g, rng) || ir.VerifyFunc(g) != nil || len(g.Params) != len(probes[0].args) {
			continue
		}
		for _, p := range probes {
			if o, err := interp.Run(g, p.args, interp.DefaultConfig()); err == nil && !o.UB && !o.Ret.Poison && o.Ret.Bits != p.ret {
				return ir.FuncString(g), true
			}
		}
	}
	return "", false
}

// garble damages text and keeps the result only if the parser or the
// IR verifier rejects it.
func garble[R Rule](text string, rules []R, rng *rand.Rand) (string, bool) {
	for _, ri := range rng.Perm(len(rules)) {
		out := rules[ri].ApplyText(text, rng)
		if f, err := ir.ParseFunc(out); err != nil || ir.VerifyFunc(f) != nil {
			return out, true
		}
	}
	return "", false
}
