package alive

import (
	"context"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
)

// VerifyRuleHits is VerifyFuncs that also reports which of bv's
// normal-form rules fired while the two functions were executed, for
// the external tests (dataset imports this package).
func VerifyRuleHits(src, tgt *ir.Function, opts Options) (Result, map[string]int) {
	b := bv.NewBuilder()
	res := verifyWith(context.Background(), b, src, tgt, opts)
	return res, b.RuleHits()
}
