package grpo

import (
	"context"
	"math"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
)

func corpus(t *testing.T, n int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 5, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// stepBg and trainBg run a trainer's StepCtx and TrainCtx under a
// context that never ends, where the only error is nil.
func stepBg[S any](stepCtx func(context.Context) (S, error)) S {
	stats, _ := stepCtx(context.Background())
	return stats
}

func trainBg[S any](trainCtx func(context.Context, int) ([]S, error), n int) []S {
	stats, _ := trainCtx(context.Background(), n)
	return stats
}

// judge is JudgeWith on the shared default stack.
func judge(ep *policy.Episode, s *dataset.Sample, opts alive.Options) *Judgment {
	return JudgeWith(context.Background(), nil, ep, s, opts)
}

func TestRewardEq1Hierarchy(t *testing.T) {
	samples := corpus(t, 4)
	s := samples[0]
	vo := alive.DefaultOptions()

	// Exact instcombine output: top reward 4 (t=1, a=1, m=1, b=1).
	epExact := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: true}
	jExact := judge(epExact, s, vo)
	rExact := correctnessReward(epExact, jExact, true)
	if math.Abs(rExact-4) > 1e-9 {
		t.Errorf("exact-match reward = %v, want 4", rExact)
	}

	// Copy of input: correct but no exact match (2 + BLEU).
	epCopy := &policy.Episode{FinalText: s.O0Text, AttemptText: s.O0Text, FormatOK: true, Copied: true}
	jCopy := judge(epCopy, s, vo)
	rCopy := correctnessReward(epCopy, jCopy, true)
	if rCopy <= 2 || rCopy >= rExact {
		t.Errorf("copy reward = %v, want in (2, %v)", rCopy, rExact)
	}

	// Garbage: only BLEU-ish scraps, and t=1 keeps the format point.
	epBad := &policy.Episode{FinalText: "not ir at all", AttemptText: "not ir at all", FormatOK: true}
	jBad := judge(epBad, s, vo)
	if jBad.FinalVerdict.Verdict != alive.SyntaxError {
		t.Fatalf("garbage verdict = %v", jBad.FinalVerdict.Verdict)
	}
	rBad := correctnessReward(epBad, jBad, true)
	if rBad >= rCopy {
		t.Errorf("garbage reward %v not below copy reward %v", rBad, rCopy)
	}

	// Format break zeroes the t term.
	epNoFmt := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: false}
	jNoFmt := judge(epNoFmt, s, vo)
	rNoFmt := correctnessReward(epNoFmt, jNoFmt, true)
	if math.Abs(rNoFmt-1) > 1e-9 { // b = 1 only
		t.Errorf("format-broken exact reward = %v, want 1", rNoFmt)
	}
}

func TestCoTRewardAgreement(t *testing.T) {
	samples := corpus(t, 2)
	s := samples[0]
	vo := alive.DefaultOptions()

	mk := func(attempt string, cls policy.DiagClass, msg string) (*policy.Episode, *Judgment) {
		ep := &policy.Episode{
			FinalText:   s.RefText,
			AttemptText: attempt,
			FormatOK:    true,
			Diag:        &policy.DiagRecord{PredictedClass: cls, Message: msg},
		}
		return ep, judge(ep, s, vo)
	}

	// Agreement on OK.
	ep, j := mk(s.RefText, policy.DiagOK, "ok")
	if r := cotReward(ep, j); r != 1 {
		t.Errorf("agree-OK reward = %v, want 1", r)
	}
	// Disagreement: verifier OK, model says error.
	ep, j = mk(s.RefText, policy.DiagSemanticError, "ERROR: Value mismatch")
	if r := cotReward(ep, j); r != 0 {
		t.Errorf("disagree reward = %v, want 0", r)
	}
	// Agreement on ERR: 0.5 + BLEU share.
	ep, j = mk("garbage text", policy.DiagSyntaxError, "ERROR: couldn't parse transformed IR")
	r := cotReward(ep, j)
	if r < 0.5 || r > 1 {
		t.Errorf("agree-ERR reward = %v, want in [0.5, 1]", r)
	}
}

func TestLatencyRewardShape(t *testing.T) {
	p := LatencyRewardParams{UMax: 3, Gamma: 2}
	ok := alive.Result{Verdict: alive.Equivalent}
	mk := func(v alive.Verdict, u float64) *Judgment {
		return &Judgment{FinalVerdict: alive.Result{Verdict: v}, speedup: u}
	}
	if latencyReward(mk(alive.SemanticError, 5), p) != 0 {
		t.Error("unverified output must get 0")
	}
	if latencyReward(mk(alive.Equivalent, 1.0), p) != 0 {
		t.Error("no speedup must get 0 (copies included)")
	}
	r2 := latencyReward(mk(alive.Equivalent, 2), p)
	r3 := latencyReward(mk(alive.Equivalent, 3), p)
	r9 := latencyReward(mk(alive.Equivalent, 9), p)
	if !(r2 > 0 && r2 < r3) {
		t.Errorf("reward not increasing: r2=%v r3=%v", r2, r3)
	}
	if r3 != 1 || r9 != 1 {
		t.Errorf("saturation failed: r3=%v r9=%v", r3, r9)
	}
	// Convexity: γ>1 emphasizes larger speedups.
	rHalf := latencyReward(mk(alive.Equivalent, 2), p)
	if math.Abs(rHalf-0.25) > 1e-9 {
		t.Errorf("r(u=2, umax=3, γ=2) = %v, want 0.25", rHalf)
	}
	_ = ok
}

// TestPercentileIndexNearestRank pins the nearest-rank index math:
// the old int(p/100*(n-1)) truncation selected index 2 for the 80th
// percentile of 4 samples, biasing UMax low on small corpora.
func TestPercentileIndexNearestRank(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		// 80th percentile across n=1..5 (the small-corpus regression).
		{80, 1, 0}, {80, 2, 1}, {80, 3, 2}, {80, 4, 3}, {80, 5, 3},
		// Half-ranks round up.
		{50, 1, 0}, {50, 2, 0}, {50, 3, 1}, {50, 4, 1}, {50, 5, 2},
		// Extremes and clamping.
		{0, 4, 0}, {100, 4, 3}, {-5, 4, 0}, {150, 4, 3},
		{25, 4, 0}, {75, 4, 2}, {100, 1, 0}, {0, 1, 0},
	}
	for _, c := range cases {
		if got := percentileIndex(c.p, c.n); got != c.want {
			t.Errorf("percentileIndex(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestComputeUMax(t *testing.T) {
	samples := corpus(t, 20)
	u := ComputeUMax(samples, 80)
	if u <= 1 {
		t.Errorf("UMax = %v, want > 1", u)
	}
	u100 := ComputeUMax(samples, 100)
	if u100 < u {
		t.Errorf("100th percentile %v below 80th %v", u100, u)
	}
}

func TestTrainingImprovesVerifiedFraction(t *testing.T) {
	samples := corpus(t, 30)
	m := policy.New(policy.CapQwen3B, 3)
	cfg := DefaultConfig()
	tr := NewTrainer(m, samples, cfg, 11)
	first := stepBg(tr.StepCtx)
	var last StepStats
	for i := 0; i < 14; i++ {
		last = stepBg(tr.StepCtx)
	}
	if last.meanReward <= first.meanReward {
		t.Errorf("mean reward did not improve: %v -> %v", first.meanReward, last.meanReward)
	}
	if len(tr.RewardHistory) != 15 {
		t.Errorf("history length %d, want 15", len(tr.RewardHistory))
	}
}

func TestFailureCollection(t *testing.T) {
	samples := corpus(t, 12)
	m := policy.New(policy.CapQwen3B, 3)
	tr := NewTrainer(m, samples, DefaultConfig(), 12)
	tr.CollectFailures = true
	trainBg(tr.TrainCtx, 3)
	if len(tr.Failures) == 0 {
		t.Fatal("no failures harvested from the untrained model")
	}
	for _, fs := range tr.Failures {
		if fs.TrueClass == policy.DiagOK {
			t.Error("failure recorded with OK class")
		}
		if fs.TrueDiag == "" {
			t.Error("failure without verifier diagnostic")
		}
	}
}

func TestGradClipBoundsUpdate(t *testing.T) {
	samples := corpus(t, 8)
	m := policy.New(policy.CapQwen3B, 3)
	cfg := DefaultConfig()
	cfg.ClipNorm = 0.001 // practically freeze the model
	before := append([]float64(nil), m.B...)
	tr := NewTrainer(m, samples, cfg, 13)
	trainBg(tr.TrainCtx, 2)
	maxDelta := 0.0
	for a := range m.B {
		d := math.Abs(m.B[a] - before[a])
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta > 0.5 {
		t.Errorf("clip did not bound the update: max ΔB = %v", maxDelta)
	}
}

func TestEMA(t *testing.T) {
	s := EMA([]float64{1, 1, 1, 5}, 0.95)
	if len(s) != 4 {
		t.Fatal("length mismatch")
	}
	if s[3] <= s[2] || s[3] > 5 {
		t.Errorf("EMA response wrong: %v", s)
	}
	if len(EMA(nil, 0.95)) != 0 {
		t.Error("empty series should yield empty EMA")
	}
}

func TestJudgeCountsCopyAndExact(t *testing.T) {
	samples := corpus(t, 2)
	s := samples[0]
	ep := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: true}
	j := judge(ep, s, alive.DefaultOptions())
	if !j.exactMatch {
		t.Error("exact match not detected")
	}
	if j.FinalVerdict.Verdict != alive.Equivalent {
		t.Errorf("ref output verdict = %v", j.FinalVerdict.Verdict)
	}
	if j.speedup <= 0 {
		t.Errorf("speedup = %v", j.speedup)
	}
	// Structural sanity of FinalFn.
	if j.FinalFn == nil || ir.VerifyFunc(j.FinalFn) != nil {
		t.Error("FinalFn missing or invalid")
	}
}
