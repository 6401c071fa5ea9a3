package oracle

import (
	"context"

	"veriopt/internal/alive"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
)

// Accept is the paper's deployment rule, and the only place in the
// repository where an output may replace its input: out is the
// candidate when o proved it Equivalent to in, and in every other case
// — semantic error, syntax error, inconclusive, canceled — the pointer
// in itself, with the Result that says why.
//
// The candidate is cand when the caller already holds one (a pass
// pipeline's output). With cand nil it is model's greedy decode of in,
// admitted through alive.Candidate (the one SyntaxError gate), or, with
// no model either, instcombine.Run(in). Exactly one oracle query is
// made, none for a candidate the gate rejected.
func Accept(ctx context.Context, o Oracle, model *policy.Model, in, cand *ir.Function, opts alive.Options) (out *ir.Function, res alive.Result) {
	switch {
	case cand != nil:
	case model != nil:
		ep := model.Generate(in, policy.GenOptions{})
		if cand, res = alive.Candidate(ir.ParseFunc(ep.FinalText)); cand == nil {
			return in, res
		}
	default:
		cand = instcombine.Run(in)
	}
	if res = o.Verify(ctx, in, cand, opts); res.Verdict != alive.Equivalent {
		return in, res
	}
	return cand, res
}
