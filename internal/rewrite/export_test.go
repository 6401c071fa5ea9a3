package rewrite

import "veriopt/internal/ir"

// CountApplicable returns a copy of r that adds one to *n each time
// its finder runs to answer Applicable. A corruption has no finder and
// comes back as it is.
func CountApplicable(r *Rule, n *int) *Rule {
	if r.applicable == nil {
		return r
	}
	c := *r
	c.applicable = func(f *ir.Function) bool {
		*n++
		return r.applicable(f)
	}
	return &c
}
