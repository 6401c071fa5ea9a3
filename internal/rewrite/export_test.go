package rewrite

import (
	"math/rand"

	"veriopt/internal/ir"
)

// CountApplicable returns a copy of r that adds one to *n each time
// its step runs as its finder (act false), which is how Applicable
// asks. A corruption has no step and comes back as it is.
func CountApplicable(r *Rule, n *int) *Rule {
	if r.step == nil {
		return r
	}
	c := *r
	c.step = func(f *ir.Function, act bool, rng *rand.Rand) bool {
		if !act {
			*n++
		}
		return r.step(f, act, rng)
	}
	return &c
}
