// Package refinetest decides, by running the concrete interpreter,
// whether a target function refines a source function. It is the
// reference the symbolic verifier is held to, so it shares no code with
// internal/alive, internal/bv or internal/sat: its only imports are
// internal/ir and internal/interp. It is test support: only _test.go
// files import it.
//
// Four deciders are built on one comparator (Runs.Violation):
//   - Witness, which runs a counterexample's input;
//   - Exhaustive, which runs every input of a narrow pair that reads no
//     call's result;
//   - Falsify, a seeded sampler with corner values for wider pairs;
//   - Target, the labeller of the benchmark's model-output corpus.
package refinetest

import (
	"fmt"
	"math/rand"
	"testing"

	"veriopt/internal/interp"
	"veriopt/internal/ir"
)

// Runs is a source and a target run on the same arguments.
type Runs struct {
	Src, Tgt *interp.Outcome
}

// Run executes src and tgt on args. The error is the interpreter's: a
// step limit, or an argument count that does not fit.
func Run(src, tgt *ir.Function, args []interp.Val) (Runs, error) {
	o1, err := interp.Run(src, args, interp.DefaultConfig())
	if err != nil {
		return Runs{}, fmt.Errorf("interp src: %w", err)
	}
	o2, err := interp.Run(tgt, args, interp.DefaultConfig())
	if err != nil {
		return Runs{}, fmt.Errorf("interp tgt: %w", err)
	}
	return Runs{o1, o2}, nil
}

// Violation names the refinement clause the target's run breaks, or
// returns "" when it refines the source's. Source UB admits anything.
// Otherwise the target may not raise UB, and the call traces must match
// call for call: callee, argument count, and every argument's type and
// bits, a poison argument on either side being observed. Last, source
// poison admits any return, and a defined source return must be met by
// the same bits.
func (r Runs) Violation() string {
	o1, o2 := r.Src, r.Tgt
	if o1.UB {
		return ""
	}
	if o2.UB {
		return "target UB"
	}
	if len(o1.Calls) != len(o2.Calls) {
		return "call count"
	}
	for i, c := range o1.Calls {
		d := o2.Calls[i]
		if c.Site.Callee != d.Site.Callee {
			return "callee"
		}
		if len(c.Args) != len(d.Args) {
			return "call argument count"
		}
		for j, a := range c.Args {
			if !c.Site.Args[j].Type().Equal(d.Site.Args[j].Type()) {
				return "call argument type"
			}
			if b := d.Args[j]; a.Poison || b.Poison {
				return "poison call argument"
			} else if a.Bits != b.Bits {
				return "call argument"
			}
		}
	}
	if o1.Ret.Poison {
		return ""
	}
	if o2.Ret.Poison {
		return "target poison"
	}
	if o1.Ret.Bits != o2.Ret.Bits {
		return "value"
	}
	return ""
}

// differs reports whether running src and tgt on args shows a
// refinement violation.
func differs(src, tgt *ir.Function, args []interp.Val) (bool, error) {
	r, err := Run(src, tgt, args)
	return err == nil && r.Violation() != "", err
}

// Witness reports whether cex, a verifier's counterexample (parameter
// values by name; a parameter it lacks is 0), distinguishes src and tgt
// under the interpreter. An interpreter error fails the test.
func Witness(t testing.TB, src, tgt *ir.Function, cex map[string]uint64) bool {
	t.Helper()
	args := make([]interp.Val, len(src.Params))
	for i, p := range src.Params {
		args[i] = interp.V(cex[p.NameStr])
	}
	d, err := differs(src, tgt, args)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// UsesCallResult reports whether some instruction of f reads what a
// call returned. A verifier's model is free to choose that value, and a
// counterexample carries the parameters only, while the interpreter
// makes the value up from a hash of the call's arguments: when the
// violated property depends on it (nuw on an add of two call results
// overflows for some results and not for the hashed ones), no run on
// the parameters alone can show the violation.
func UsesCallResult(f *ir.Function) bool {
	uses := false
	isCall := func(v ir.Value) bool {
		in, ok := v.(*ir.Instr)
		return ok && in.Op == ir.OpCall
	}
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		for _, a := range in.Args {
			uses = uses || isCall(a)
		}
		for _, inc := range in.Incs {
			uses = uses || isCall(inc.Val)
		}
	})
	return uses
}

// maxBits is the most parameter bits Exhaustive enumerates: 65 536
// inputs.
const maxBits = 16

// Exhaustive decides whether tgt refines src by running both on every
// input. It declines, with an error saying why, a pair it cannot
// enumerate:
//   - a parameter that is not a noundef integer (a poison input is not
//     enumerated), on either side;
//   - parameter or return types that differ;
//   - more than 16 parameter bits;
//   - a call's result read on either side (the interpreter makes it
//     up, so the parameters do not determine a run);
//   - an input the interpreter cannot finish.
func Exhaustive(src, tgt *ir.Function) (refines bool, err error) {
	if len(src.Params) != len(tgt.Params) || !src.RetTy.Equal(tgt.RetTy) {
		return false, fmt.Errorf("refinetest: signatures differ")
	}
	bits := 0
	for i, p := range src.Params {
		it, isInt := p.Ty.(ir.IntType)
		switch q := tgt.Params[i]; {
		case !isInt || !p.Noundef || !q.Noundef:
			return false, fmt.Errorf("refinetest: parameter %d is not a noundef integer", i)
		case !q.Ty.Equal(p.Ty):
			return false, fmt.Errorf("refinetest: signatures differ")
		}
		bits += it.Bits
	}
	if bits > maxBits {
		return false, fmt.Errorf("refinetest: %d parameter bits, more than %d", bits, maxBits)
	}
	for _, f := range []*ir.Function{src, tgt} {
		if UsesCallResult(f) {
			return false, fmt.Errorf("refinetest: %s reads a call's result", f.NameStr)
		}
	}
	args := make([]interp.Val, len(src.Params))
	for in := uint64(0); in < 1<<uint(bits); in++ {
		rest := in
		for i, p := range src.Params {
			w := uint(p.Ty.(ir.IntType).Bits)
			args[i] = interp.V(rest & (1<<w - 1))
			rest >>= w
		}
		if d, err := differs(src, tgt, args); err != nil || d {
			return false, err
		}
	}
	return true, nil
}

// corners are the boundary values tried, masked to width, beside
// random ones: unsound folds typically break at sign and overflow
// edges.
var corners = []uint64{0, 1, 2, 3, 7, 8, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0x7fffffff, 0x80000000,
	0xfffffffe, 0xffffffff, 0x7fffffffffffffff, 0x8000000000000000, ^uint64(0), ^uint64(1)}

// draw is one input for f's parameters: each a corner value or a
// uniform one, with equal odds.
func draw(f *ir.Function, rng *rand.Rand) []interp.Val {
	args := make([]interp.Val, len(f.Params))
	for j := range args {
		if rng.Intn(2) == 0 {
			args[j] = interp.V(corners[rng.Intn(len(corners))])
		} else {
			args[j] = interp.V(rng.Uint64())
		}
	}
	return args
}

// Falsify runs src and tgt on tries inputs drawn from a generator of its
// own, seeded with seed, and returns the first input that distinguishes
// them, or nil when none does. The error is the interpreter's, with the
// input it stopped on.
func Falsify(src, tgt *ir.Function, seed int64, tries int) ([]interp.Val, error) {
	rng := rand.New(rand.NewSource(seed))
	for try := 0; try < tries; try++ {
		args := draw(src, rng)
		if d, err := differs(src, tgt, args); err != nil || d {
			return args, err
		}
	}
	return nil, nil
}
