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
// the rollouts of a GRPO group are proved once. trainVerify bounds the
// verifier work per query, asked of o under ctx. l is s's label as
// labelOf prepared it for cfg.
func score(ctx context.Context, o oracle.Oracle, s *dataset.Sample, l label, ep *policy.Episode, cfg *Config) episodeScore {
	es := episodeScore{s: s, ep: *ep}
	final, finalFn := verdictOf(ctx, o, ep.FinalText, s)
	es.attempt = final
	if ep.Diag != nil && ep.AttemptText != ep.FinalText {
		es.attempt, _ = verdictOf(ctx, o, ep.AttemptText, s)
	}
	switch cfg.Mode {
	case ModeLatency:
		es.r[answer] = latencyScore(s, final.Verdict, finalFn, cfg.UMax)
	case ModeCorrectness, ModeCorrectnessCoT:
		shaping := !cfg.NoBleuShaping
		exact, b := l.terms(ep.FinalText)
		es.r[answer] = eq1(ep.FormatOK, final.Verdict, exact, b, shaping)
		if cfg.Mode == ModeCorrectnessCoT {
			if ep.AttemptText != ep.FinalText {
				exact, b = l.terms(ep.AttemptText)
			}
			es.r[attempt] = eq1(ep.FormatOK, es.attempt.Verdict, exact, b, shaping)
			es.r[think] = cotReward(ep.Diag, es.attempt)
		}
	}
	return es
}

// label is what Eq. 1 reads of a sample's instcombine label, prepared
// once per step for all of the sample's rollouts: its fingerprint, for
// exact match, and bleu, BLEU against its text (nil when shaping is
// off).
type label struct {
	fingerprint string
	bleu        func(string) float64
}

// labelOf prepares s's label for cfg's reward mode: the zero label in
// ModeLatency, which drops the label.
func labelOf(s *dataset.Sample, cfg *Config) label {
	if cfg.Mode == ModeLatency {
		return label{}
	}
	l := label{fingerprint: ir.FingerprintText(s.RefText)}
	if !cfg.NoBleuShaping {
		l.bleu = bleu.Scorer(s.RefText)
	}
	return l
}

// terms returns Eq. 1's label terms for one emitted text: m, its exact
// match with the label, and b, its BLEU against the label when shaping
// is on.
func (l label) terms(text string) (exact bool, b float64) {
	exact = ir.FingerprintText(text) == l.fingerprint
	if l.bleu != nil {
		b = l.bleu(text)
	}
	return exact, b
}

func verdictOf(ctx context.Context, o oracle.Oracle, text string, s *dataset.Sample) (alive.Result, *ir.Function) {
	f, res := alive.Candidate(ir.ParseFunc(text))
	if f == nil {
		return res, nil
	}
	return o.Verify(ctx, s.O0, f, trainVerify), f
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
		return 0.5 + 0.5*bleu.Scorer(attempt.Diag)(d.Message)
	default:
		return 0
	}
}

// Eqs. 3–4's settings, the paper's: UMax is the umaxPercentile-th
// percentile of instcombine's speedups on the training set (the caller
// computes it once, with ComputeUMax, and passes it in), and
// latencyGamma the convex shaping exponent. A UMax of 1 or less (0 in
// a Config that never set it) reads as defaultUMax, ComputeUMax's
// empty-corpus value: otherwise frac would be negative and the reward
// meaningless.
const (
	umaxPercentile = 80
	latencyGamma   = 2.0
	defaultUMax    = 2.0
)

// latencyScore is Eqs. 3–4 for an output fn whose verdict against s's
// input is v: the speedup of fn over the input, measured only when fn
// verified, through latencyReward. Both policies' latency rewards are
// this one.
func latencyScore(s *dataset.Sample, v alive.Verdict, fn *ir.Function, umax float64) float64 {
	speedup := 0.0
	if v == alive.Equivalent {
		speedup = costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(fn))
	}
	return latencyReward(v, speedup, umax)
}

// latencyReward is the paper's Eq. 4: zero unless the output verified
// (S=1) and sped up (u>1); then a convex, saturating share of the
// speedup.
func latencyReward(v alive.Verdict, speedup, umax float64) float64 {
	if v != alive.Equivalent || speedup <= 1 {
		return 0
	}
	if umax <= 1 {
		umax = defaultUMax
	}
	frac := (speedup - 1) / (umax - 1)
	if frac > 1 {
		frac = 1
	}
	return math.Pow(frac, latencyGamma)
}

// ComputeUMax returns the umaxPercentile-th percentile of instcombine's
// speedups over the corpus, resolved by the nearest-rank method — the
// old truncating index int(p/100*(n-1)) biased UMax low on small
// corpora (the 80th percentile of 4 samples selected index 2 instead
// of 3).
func ComputeUMax(samples []*dataset.Sample) float64 {
	var ups []float64
	for _, s := range samples {
		u := costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(s.Ref))
		ups = append(ups, u)
	}
	if len(ups) == 0 {
		return defaultUMax
	}
	sort.Float64s(ups)
	u := ups[percentileIndex(umaxPercentile, len(ups))]
	if u <= 1.01 {
		u = 1.5
	}
	return u
}

// percentileIndex maps a percentile p in [0, 100] to a 0-based index
// into a sorted slice of n values using the nearest-rank method with
// half-ranks rounded up: rank = ceil(p/100 * n), at least 1.
func percentileIndex(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n))), 1) - 1
}
