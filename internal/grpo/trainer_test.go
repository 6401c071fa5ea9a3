package grpo

import (
	"context"
	"math"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/oracle"
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
func stepBg(stepCtx func(context.Context) (float64, error)) float64 {
	norm, _ := stepCtx(context.Background())
	return norm
}

func trainBg(trainCtx func(context.Context, int) error, n int) {
	_ = trainCtx(context.Background(), n)
}

// testStack is the stack the package's tests share, so verdicts proved
// by one test are cache hits for the next.
var testStack = oracle.NewStack(oracle.Config{})

// scoreIn is score on testStack in mode, under the default verifier
// bounds, with BLEU shaping on or off.
func scoreIn(mode RewardMode, shaping bool, ep *policy.Episode, s *dataset.Sample) episodeScore {
	cfg := Config{Mode: mode, Verify: alive.DefaultOptions(), NoBleuShaping: !shaping}
	return score(context.Background(), testStack, s, ep, &cfg)
}

func TestRewardEq1Hierarchy(t *testing.T) {
	samples := corpus(t, 4)
	s := samples[0]

	// Exact instcombine output: top reward 4 (t=1, a=1, m=1, b=1).
	epExact := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: true}
	rExact := scoreIn(ModeCorrectness, true, epExact, s).rAnswer
	if math.Abs(rExact-4) > 1e-9 {
		t.Errorf("exact-match reward = %v, want 4", rExact)
	}

	// Copy of input: correct but no exact match (2 + BLEU).
	epCopy := &policy.Episode{FinalText: s.O0Text, AttemptText: s.O0Text, FormatOK: true}
	rCopy := scoreIn(ModeCorrectness, true, epCopy, s).rAnswer
	if rCopy <= 2 || rCopy >= rExact {
		t.Errorf("copy reward = %v, want in (2, %v)", rCopy, rExact)
	}

	// Garbage: only BLEU-ish scraps, and t=1 keeps the format point.
	epBad := &policy.Episode{FinalText: "not ir at all", AttemptText: "not ir at all", FormatOK: true}
	esBad := scoreIn(ModeCorrectness, true, epBad, s)
	if esBad.attempt.Verdict != alive.SyntaxError {
		t.Fatalf("garbage verdict = %v", esBad.attempt.Verdict)
	}
	if esBad.rAnswer >= rCopy {
		t.Errorf("garbage reward %v not below copy reward %v", esBad.rAnswer, rCopy)
	}

	// Format break zeroes the t term.
	epNoFmt := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: false}
	rNoFmt := scoreIn(ModeCorrectness, true, epNoFmt, s).rAnswer
	if math.Abs(rNoFmt-1) > 1e-9 { // b = 1 only
		t.Errorf("format-broken exact reward = %v, want 1", rNoFmt)
	}
}

func TestCoTRewardAgreement(t *testing.T) {
	samples := corpus(t, 2)
	s := samples[0]

	mk := func(attempt string, cls policy.DiagClass, msg string) float64 {
		ep := &policy.Episode{
			FinalText:   s.RefText,
			AttemptText: attempt,
			FormatOK:    true,
			Diag:        &policy.DiagRecord{PredictedClass: cls, Message: msg},
		}
		return scoreIn(ModeCorrectnessCoT, true, ep, s).rThink
	}

	// Agreement on OK.
	if r := mk(s.RefText, policy.DiagOK, "ok"); r != 1 {
		t.Errorf("agree-OK reward = %v, want 1", r)
	}
	// Disagreement: verifier OK, model says error.
	if r := mk(s.RefText, policy.DiagSemanticError, "ERROR: Value mismatch"); r != 0 {
		t.Errorf("disagree reward = %v, want 0", r)
	}
	// Agreement on ERR: 0.5 + BLEU share.
	r := mk("garbage text", policy.DiagSyntaxError, "ERROR: couldn't parse transformed IR")
	if r < 0.5 || r > 1 {
		t.Errorf("agree-ERR reward = %v, want in [0.5, 1]", r)
	}
}

func TestLatencyRewardShape(t *testing.T) {
	p := LatencyRewardParams{UMax: 3, Gamma: 2}
	if latencyReward(alive.SemanticError, 5, p) != 0 {
		t.Error("unverified output must get 0")
	}
	if latencyReward(alive.Equivalent, 1.0, p) != 0 {
		t.Error("no speedup must get 0 (copies included)")
	}
	r2 := latencyReward(alive.Equivalent, 2, p)
	r3 := latencyReward(alive.Equivalent, 3, p)
	r9 := latencyReward(alive.Equivalent, 9, p)
	if !(r2 > 0 && r2 < r3) {
		t.Errorf("reward not increasing: r2=%v r3=%v", r2, r3)
	}
	if r3 != 1 || r9 != 1 {
		t.Errorf("saturation failed: r3=%v r9=%v", r3, r9)
	}
	// Convexity: γ>1 emphasizes larger speedups.
	rHalf := latencyReward(alive.Equivalent, 2, p)
	if math.Abs(rHalf-0.25) > 1e-9 {
		t.Errorf("r(u=2, umax=3, γ=2) = %v, want 0.25", rHalf)
	}
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
	tr := NewTrainer(testStack, m, samples, cfg, 11)
	trainBg(tr.TrainCtx, 15)
	if len(tr.RewardHistory) != 15 {
		t.Fatalf("history length %d, want 15", len(tr.RewardHistory))
	}
	if first, last := tr.RewardHistory[0], tr.RewardHistory[14]; last <= first {
		t.Errorf("mean reward did not improve: %v -> %v", first, last)
	}
}

func TestFailureCollection(t *testing.T) {
	samples := corpus(t, 12)
	m := policy.New(policy.CapQwen3B, 3)
	tr := NewTrainer(testStack, m, samples, DefaultConfig(), 12)
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
	tr := NewTrainer(testStack, m, samples, cfg, 13)
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

// TestScoreCountsExactAndSpeedup: the instcombine label itself scores
// the exact-match point of Eq. 1 in the correctness modes, and in the
// latency mode Eq. 4 of the speedup of the function parsed from it.
func TestScoreCountsExactAndSpeedup(t *testing.T) {
	p := LatencyRewardParams{UMax: 3, Gamma: 2}
	sped := 0
	for _, s := range corpus(t, 8) {
		ep := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: true}
		if es := scoreIn(ModeCorrectness, false, ep, s); es.rAnswer != 3 || es.attempt.Verdict != alive.Equivalent {
			t.Errorf("%s: label scored %v (%v), want 3: t, a and m", s.Name, es.rAnswer, es.attempt.Verdict)
		}
		u := costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(s.Ref))
		if u > 1 {
			sped++
		}
		cfg := Config{Mode: ModeLatency, Verify: alive.DefaultOptions(), Latency: p}
		if got, want := score(context.Background(), testStack, s, ep, &cfg).rAnswer, latencyReward(alive.Equivalent, u, p); got != want {
			t.Errorf("%s: latency reward %v, want %v (speedup %v)", s.Name, got, want, u)
		}
	}
	if sped == 0 {
		t.Fatal("no label in the corpus is faster than its input; the latency check is vacuous")
	}
}
