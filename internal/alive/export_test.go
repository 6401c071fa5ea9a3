package alive

import (
	"context"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
)

// ExecCounts is what symbolic execution of one function took: edges
// taken, instructions visited, states merged at joins.
type ExecCounts struct{ Paths, Steps, Merges int }

// Add adds o to c.
func (c *ExecCounts) Add(o ExecCounts) {
	c.Paths, c.Steps, c.Merges = c.Paths+o.Paths, c.Steps+o.Steps, c.Merges+o.Merges
}

// VerifyRuleHits is VerifyFuncs that also reports which of bv's
// normal-form rules fired while the two functions were executed and
// what executing the source and the target took (zero for a side that
// did not finish), for the external tests (dataset imports this
// package).
func VerifyRuleHits(src, tgt *ir.Function, opts Options) (Result, map[string]int, [2]ExecCounts) {
	b := bv.NewBuilder()
	var counts [2]ExecCounts
	side := 0
	res := verifyWith(context.Background(), b, src, tgt, opts, func(b *bv.Builder, f *ir.Function, params []symVal, cfg execConfig) (*summary, error) {
		s, err := exec(b, f, params, cfg)
		if err == nil {
			counts[side] = ExecCounts{Paths: s.paths, Steps: s.steps, Merges: s.merges}
		}
		side++
		return s, err
	}, newSession)
	return res, b.RuleHits(), counts
}

// UpdateGolden is the package's -update flag, for the external tests'
// goldens (one test binary holds both packages' flags).
var UpdateGolden = update

// The Reason values no other package names, for the external tests.
const (
	PathLimit   = pathLimit
	StepLimit   = stepLimit
	Unsupported = unsupported
)
