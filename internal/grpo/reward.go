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

// score verifies one rollout cell's episode against its sample and
// computes the rewards of cfg.Mode from the terms that mode reads, and
// no others:
//   - ModeLatency: the final verdict and the speedup (Eqs. 3–4). The
//     label is dropped, so no exact match and no BLEU against it.
//   - ModeCorrectness: Eq. 1 on the final answer, with exact match, and
//     BLEU only when shaping is on.
//   - ModeCorrectnessCoT: the same, plus Eq. 2 and the attempt's own
//     Eq. 1. An attempt whose text is the answer's reuses its terms.
//
// The oracle is asked about the final answer, then about the attempt
// when the episode diagnosed one that differs; a stack's cache
// memoizes verdicts, so the attempts and answers that coincide across
// the rollouts of a GRPO group are proved once. cfg.Verify bounds the
// verifier work per query, asked of o under ctx.
func score(ctx context.Context, o oracle.Oracle, s *dataset.Sample, ep *policy.Episode, cfg *Config) episodeScore {
	es := episodeScore{s: s, ep: ep}
	final, finalFn := verdictOf(ctx, o, ep.FinalText, s, cfg.Verify)
	es.attempt = final
	if ep.Diag != nil && ep.AttemptText != ep.FinalText {
		es.attempt, _ = verdictOf(ctx, o, ep.AttemptText, s, cfg.Verify)
	}
	switch cfg.Mode {
	case ModeLatency:
		speedup := 0.0
		if final.Verdict == alive.Equivalent {
			speedup = costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(finalFn))
		}
		es.rAnswer = latencyReward(final.Verdict, speedup, cfg.Latency)
	case ModeCorrectness, ModeCorrectnessCoT:
		shaping := !cfg.NoBleuShaping
		ref := ir.FingerprintText(s.RefText)
		exact, b := labelTerms(ep.FinalText, s.RefText, ref, shaping)
		es.rAnswer = eq1(ep.FormatOK, final.Verdict, exact, b, shaping)
		if cfg.Mode == ModeCorrectnessCoT {
			if ep.AttemptText != ep.FinalText {
				exact, b = labelTerms(ep.AttemptText, s.RefText, ref, shaping)
			}
			es.rAttempt = eq1(ep.FormatOK, es.attempt.Verdict, exact, b, shaping)
			es.rThink = cotReward(ep.Diag, es.attempt)
		}
	}
	es.r = es.rAnswer + es.rThink
	return es
}

// labelTerms returns Eq. 1's label terms for one emitted text: m, its
// exact match with the reference (ref is the reference's fingerprint),
// and b, its BLEU against the reference text when shaping is on.
func labelTerms(text, refText, ref string, shaping bool) (exact bool, b float64) {
	exact = ir.FingerprintText(text) == ref
	if shaping {
		b = bleu.ScoreText(text, refText)
	}
	return exact, b
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

// cotReward is the paper's Eq. 2: full credit when model and verifier
// agree the attempt is OK, partial credit scaled by diagnostic BLEU
// when both agree on an error, zero on disagreement (and without a
// diagnosis).
func cotReward(d *policy.DiagRecord, attempt alive.Result) float64 {
	if d == nil {
		return 0
	}
	verifierOK := attempt.Verdict == alive.Equivalent
	modelOK := d.PredictedClass == policy.DiagOK
	switch {
	case verifierOK && modelOK:
		return 1
	case !verifierOK && !modelOK:
		return 0.5 + 0.5*bleu.ScoreText(d.Message, attempt.Diag)
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
func latencyReward(v alive.Verdict, speedup float64, p LatencyRewardParams) float64 {
	if v != alive.Equivalent || speedup <= 1 {
		return 0
	}
	p = p.normalize()
	frac := (speedup - 1) / (p.UMax - 1)
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
