// Package grpo implements Group Relative Policy Optimization with the
// paper's verification-guided rewards: the hierarchical correctness
// reward (Eq. 1), the Chain-of-Thought diagnostic-agreement reward
// (Eq. 2), and the latency-shaping reward (Eqs. 3–4), with the
// paper's §IV-B GRPO modifications — no KL penalty (gradient clipping
// instead), single update per rollout batch, and token-level loss
// normalization (DAPO-style).
package grpo

import (
	"context"
	"math"
	"sort"

	"veriopt/internal/alive"
	"veriopt/internal/bleu"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// judgment is the verifier's view of one episode: the attempt's and
// the final answer's verdicts, plus the reward ingredients.
type judgment struct {
	// attemptVerdict is the verdict for the <think>-block attempt.
	attemptVerdict alive.Result
	// finalVerdict is the verdict for the <answer>-block output.
	finalVerdict alive.Result
	// finalFn is the parsed final function (nil on syntax error).
	finalFn *ir.Function
	// exactMatch reports canonical-text equality with the reference.
	exactMatch bool
	// bleu is BLEU(final, reference).
	bleu float64
	// attemptExact/AttemptBleu are the same measures for the
	// think-block attempt (used for per-segment credit assignment).
	attemptExact bool
	attemptBleu  float64
	// speedup is t(O0)/t(final) when finalFn verified, else 0.
	speedup float64
	// copied mirrors Episode.Copied.
	copied bool
}

// judgeWith verifies a training episode against its sample; opts
// bounds the verifier work per query, asked of o under ctx. A stack's
// cache memoizes verdicts, so the attempt and the final answer, which
// frequently coincide across the rollouts of a GRPO group, are proved
// once.
func judgeWith(ctx context.Context, o oracle.Oracle, ep *policy.Episode, s *dataset.Sample, opts alive.Options) *judgment {
	j := &judgment{copied: ep.Copied}
	j.finalVerdict, j.finalFn = verdictOf(ctx, o, ep.FinalText, s, opts)
	if ep.Diag != nil && ep.AttemptText != ep.FinalText {
		j.attemptVerdict, _ = verdictOf(ctx, o, ep.AttemptText, s, opts)
	} else {
		j.attemptVerdict = j.finalVerdict
	}
	j.exactMatch = ir.FingerprintText(ep.FinalText) == ir.FingerprintText(s.RefText)
	j.bleu = bleu.ScoreText(ep.FinalText, s.RefText)
	if ep.AttemptText == ep.FinalText {
		j.attemptExact, j.attemptBleu = j.exactMatch, j.bleu
	} else {
		j.attemptExact = ir.FingerprintText(ep.AttemptText) == ir.FingerprintText(s.RefText)
		j.attemptBleu = bleu.ScoreText(ep.AttemptText, s.RefText)
	}
	if j.finalVerdict.Verdict == alive.Equivalent && j.finalFn != nil {
		base := costmodel.Measure(s.O0)
		opt := costmodel.Measure(j.finalFn)
		j.speedup = costmodel.Speedup(base, opt)
	}
	return j
}

func verdictOf(ctx context.Context, o oracle.Oracle, text string, s *dataset.Sample, opts alive.Options) (alive.Result, *ir.Function) {
	f, res := alive.Candidate(ir.ParseFunc(text))
	if f == nil {
		return res, nil
	}
	return o.Verify(ctx, s.O0, f, opts), f
}

// eq1 is the paper's Eq. 1:
//
//	r = t·(1 + a·(1 + m)) + b
//
// with t format compliance, a Alive2 equivalence, m exact match with
// the reference (counted only when a holds), b the BLEU similarity.
// The shaping term b is optional: shaping=false implements the
// NoBleuShaping ablation (the gradient-starvation mitigation removed).
func eq1(formatOK bool, verdict alive.Verdict, exact bool, b float64, shaping bool) float64 {
	t, a, m := 0.0, 0.0, 0.0
	if formatOK {
		t = 1
	}
	if verdict == alive.Equivalent {
		a = 1
		if exact {
			m = 1
		}
	}
	r := t * (1 + a*(1+m))
	if shaping {
		r += b
	}
	return r
}

// correctnessReward applies Eq. 1 to the final answer.
func correctnessReward(ep *policy.Episode, j *judgment, bleuShaping bool) float64 {
	return eq1(ep.FormatOK, j.finalVerdict.Verdict, j.exactMatch, j.bleu, bleuShaping)
}

// attemptReward applies Eq. 1 to the think-block attempt: the reward
// whose group-relative advantage trains the attempt's action tokens.
// The BLEU term is optional here too, so the NoBleuShaping ablation
// removes the shaping signal from the attempt segment, not just from
// the answer segment.
func attemptReward(ep *policy.Episode, j *judgment, bleuShaping bool) float64 {
	return eq1(ep.FormatOK, j.attemptVerdict.Verdict, j.attemptExact, j.attemptBleu, bleuShaping)
}

// cotReward is the paper's Eq. 2: full credit when model and verifier
// agree the attempt is OK, partial credit scaled by diagnostic BLEU
// when both agree on an error, zero on disagreement.
func cotReward(ep *policy.Episode, j *judgment) float64 {
	if ep.Diag == nil {
		return 0
	}
	verifierOK := j.attemptVerdict.Verdict == alive.Equivalent
	modelOK := ep.Diag.PredictedClass == policy.DiagOK
	switch {
	case verifierOK && modelOK:
		return 1
	case !verifierOK && !modelOK:
		return 0.5 + 0.5*bleu.ScoreText(ep.Diag.Message, j.attemptVerdict.Diag)
	default:
		return 0
	}
}

// LatencyRewardParams configures Eqs. 3–4.
type LatencyRewardParams struct {
	// UMax is the saturation threshold — the paper sets it to the 80th
	// percentile of instcombine's speedups on the training set.
	UMax float64
	// Gamma is the convex shaping exponent (> 1).
	Gamma float64
}

// Eq. 3–4 defaults applied when LatencyRewardParams is left zero (or
// set to degenerate values): UMax matches ComputeUMax's empty-corpus
// fallback, Gamma the paper's convex shaping exponent.
const (
	defaultUMax  = 2.0
	defaultGamma = 2.0
)

// normalize validates the Eq. 3–4 parameters, substituting safe
// defaults for degenerate values. A zero-valued params struct (as
// left by DefaultConfig, which never sets Latency) would otherwise
// make frac negative (UMax-1 <= 0) and math.Pow(frac, 0) == 1 — an
// unconditional full reward for any speedup > 1, and NaN for
// fractional Gamma.
func (p LatencyRewardParams) normalize() LatencyRewardParams {
	if p.UMax <= 1 {
		p.UMax = defaultUMax
	}
	if p.Gamma < 1 {
		p.Gamma = defaultGamma
	}
	return p
}

// latencyReward is the paper's Eq. 4: zero unless the output verified
// (S=1) and sped up (u>1); then a convex, saturating share of the
// speedup. Degenerate params (UMax <= 1 or Gamma < 1) are replaced by
// defaults — see normalize.
func latencyReward(j *judgment, p LatencyRewardParams) float64 {
	if j.finalVerdict.Verdict != alive.Equivalent || j.speedup <= 1 {
		return 0
	}
	p = p.normalize()
	frac := (j.speedup - 1) / (p.UMax - 1)
	if frac > 1 {
		frac = 1
	}
	return math.Pow(frac, p.Gamma)
}

// ComputeUMax returns the given percentile of instcombine's speedups
// over the corpus (paper: 80th percentile). The percentile is clamped
// to [0, 100] and resolved by the nearest-rank method — the old
// truncating index int(p/100*(n-1)) biased UMax low on small corpora
// (the 80th percentile of 4 samples selected index 2 instead of 3).
func ComputeUMax(samples []*dataset.Sample, percentile float64) float64 {
	var ups []float64
	for _, s := range samples {
		u := costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(s.Ref))
		ups = append(ups, u)
	}
	if len(ups) == 0 {
		return defaultUMax
	}
	sort.Float64s(ups)
	u := ups[percentileIndex(percentile, len(ups))]
	if u <= 1.01 {
		u = 1.5
	}
	return u
}

// percentileIndex maps a percentile to a 0-based index into a sorted
// slice of n values using the nearest-rank method with half-ranks
// rounded up: rank = ceil(p/100 * n), clamped to [1, n]. p itself is
// clamped to [0, 100] first, so out-of-range inputs select the min or
// max rather than panicking.
func percentileIndex(p float64, n int) int {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1
}
