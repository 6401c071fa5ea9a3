package alive

import (
	"context"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
	"veriopt/internal/sat"
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
// package). The session's solver, if one is built, takes its proof
// sink from proof (nil: no proof).
func VerifyRuleHits(src, tgt *ir.Function, opts Options, proof func() sat.ProofSink) (Result, map[string]int, [2]ExecCounts) {
	v := new(verification)
	var counts [2]ExecCounts
	side := 0
	res := verifyWith(context.Background(), v, src, tgt, opts, func(ex *executor, b *bv.Builder, f *ir.Function, params []symVal, cfg execConfig) (summary, error) {
		s, err := exec(ex, b, f, params, cfg)
		if err == nil {
			counts[side] = ExecCounts{Paths: s.paths, Steps: s.steps, Merges: s.merges}
		}
		side++
		return s, err
	}, proving(proof))
	return res, v.b.RuleHits(), counts
}

// proving is newSession with the session's solver told a sink from
// proof: one call per session built, and nil means no proof.
func proving(proof func() sat.ProofSink) func(*ir.Function, Options) querySolver {
	return func(fn *ir.Function, opts Options) querySolver { return sessionProof(fn, opts, sinkOf(proof)) }
}

// sinkOf is a fresh sink from proof, or none when proof is nil.
func sinkOf(proof func() sat.ProofSink) sat.ProofSink {
	if proof == nil {
		return nil
	}
	return proof()
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
