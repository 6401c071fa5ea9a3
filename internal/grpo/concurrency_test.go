package grpo

import (
	"context"
	"math"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/bleu"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// trainSteps runs a fresh trainer with the given worker count and
// returns it (private oracle stack, so runs are fully independent).
func trainSteps(t *testing.T, samples []*dataset.Sample, workers, steps int) *Trainer {
	t.Helper()
	m := policy.New(policy.CapQwen3B, 7)
	cfg := DefaultConfig()
	cfg.Workers = workers
	tr := NewTrainer(oracle.NewStack(oracle.Config{}), m, samples, cfg, 21)
	tr.CollectFailures = true
	trainBg(tr.TrainCtx, steps)
	return tr
}

// TestStepDeterministicAcrossWorkers is the tentpole's reproducibility
// contract: the GRPO trajectory must be bit-identical at any worker
// count, because every episode draws from its own derived rand.Rand
// and gradient accumulation is sequential in grid order.
func TestStepDeterministicAcrossWorkers(t *testing.T) {
	samples := corpus(t, 16)
	t1 := trainSteps(t, samples, 1, 3)
	t4 := trainSteps(t, samples, 4, 3)

	if len(t1.RewardHistory) != len(t4.RewardHistory) {
		t.Fatalf("history lengths differ: %d vs %d", len(t1.RewardHistory), len(t4.RewardHistory))
	}
	for i := range t1.RewardHistory {
		if t1.RewardHistory[i] != t4.RewardHistory[i] {
			t.Fatalf("step %d reward differs: %v vs %v", i, t1.RewardHistory[i], t4.RewardHistory[i])
		}
	}
	for a := range t1.Model.B {
		if t1.Model.B[a] != t4.Model.B[a] || t1.Model.S[a] != t4.Model.S[a] || t1.Model.P[a] != t4.Model.P[a] {
			t.Fatalf("model weights differ at action %d", a)
		}
	}
	if len(t1.Failures) != len(t4.Failures) {
		t.Fatalf("failure harvest differs: %d vs %d", len(t1.Failures), len(t4.Failures))
	}
	for i := range t1.Failures {
		if t1.Failures[i].AttemptText != t4.Failures[i].AttemptText ||
			t1.Failures[i].TrueDiag != t4.Failures[i].TrueDiag {
			t.Fatalf("failure %d differs between worker counts", i)
		}
	}
}

func TestTrainerCacheGetsHits(t *testing.T) {
	samples := corpus(t, 8)
	tr := trainSteps(t, samples, 4, 2)
	_, cs := tr.oracle.(oracle.StatsSource).OracleStats()
	if cs.Queries == 0 {
		t.Fatal("no verification queries recorded")
	}
	if cs.Hits == 0 {
		t.Fatalf("expected cache hits across a GRPO group: %+v", cs)
	}
}

// TestStepCancellationPromptNoUpdate is the tentpole's cancellation
// contract for training: canceling mid-Step returns promptly, applies
// NO model update, appends no reward history, and leaves the input
// cursor where it was — the resumed trajectory is the uncanceled one.
func TestStepCancellationPromptNoUpdate(t *testing.T) {
	samples := corpus(t, 8)
	m := policy.New(policy.CapQwen3B, 7)
	cfg := DefaultConfig()
	cfg.Workers = 4
	started := make(chan struct{}, 1)
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // wedge every verification until canceled
		return alive.CanceledResult(ctx.Err())
	})
	tr := NewTrainer(blocking, m, samples, cfg, 21)

	before := m.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tr.StepCtx(ctx)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled StepCtx returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StepCtx did not return promptly after cancel")
	}
	if len(tr.RewardHistory) != 0 || tr.cursor != 0 {
		t.Fatalf("canceled step appended history %v or moved the cursor to %d", tr.RewardHistory, tr.cursor)
	}
	for a := range m.B {
		if m.B[a] != before.B[a] || m.S[a] != before.S[a] || m.P[a] != before.P[a] {
			t.Fatalf("canceled step updated the model at action %d", a)
		}
	}
	// The cursor rewound: the resumed first step replays the same batch
	// as an uncanceled run's first step.
	tr.oracle = oracle.NewStack(oracle.Config{})
	stepBg(tr.StepCtx)
	fresh := trainSteps(t, samples, 1, 1)
	if tr.RewardHistory[0] != fresh.RewardHistory[0] {
		t.Fatalf("resumed step diverged: %v vs %v", tr.RewardHistory[0], fresh.RewardHistory[0])
	}
}

// TestTrainCtxStopsEarly: cancellation between steps truncates the
// run without an extra partial entry.
func TestTrainCtxStopsEarly(t *testing.T) {
	samples := corpus(t, 4)
	m := policy.New(policy.CapQwen3B, 7)
	tr := NewTrainer(oracle.NewStack(oracle.Config{}), m, samples, DefaultConfig(), 21)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := tr.TrainCtx(ctx, 5)
	if err == nil || len(tr.RewardHistory) != 0 || tr.cursor != 0 {
		t.Fatalf("pre-canceled TrainCtx: history=%v cursor=%d err=%v", tr.RewardHistory, tr.cursor, err)
	}
}

// TestStepEmptyDataNoPanic: Step used to divide by len(tr.Data) before
// checking it, panicking on an empty corpus.
func TestStepEmptyDataNoPanic(t *testing.T) {
	m := policy.New(policy.CapQwen3B, 3)
	tr := NewTrainer(testStack, m, nil, DefaultConfig(), 1)
	stepBg(tr.StepCtx)
	if len(tr.RewardHistory) != 1 || tr.RewardHistory[0] != 0 {
		t.Fatalf("history = %v, want one empty step's 0 (one entry per Step)", tr.RewardHistory)
	}
	if tr.cursor != 0 {
		t.Fatalf("an empty step moved the cursor to %d", tr.cursor)
	}
}

// TestLatencyRewardZeroParams: a zero UMax (as left by DefaultConfig)
// used to yield math.Pow(negativeFrac, 0) == 1 — an unconditional full
// reward for any speedup > 1.
func TestLatencyRewardZeroParams(t *testing.T) {
	r := latencyReward(alive.Equivalent, 1.5, 0)
	if math.IsNaN(r) {
		t.Fatal("zero UMax produced NaN")
	}
	if r <= 0 || r >= 1 {
		t.Fatalf("reward = %v for modest speedup 1.5 under defaults, want in (0, 1)", r)
	}
	// With the default UMax=2 (and γ=2): frac = 0.5, reward 0.25.
	if math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("reward = %v, want 0.25 under the default UMax", r)
	}
	// A valid UMax is untouched.
	r = latencyReward(alive.Equivalent, 1.5, 3)
	if math.Abs(r-0.0625) > 1e-9 {
		t.Fatalf("valid UMax altered: reward = %v, want 0.0625", r)
	}
}

// TestNoBleuShapingCoversBothSegments: the ablation must remove the
// BLEU term from the attempt segment's reward too, not only from the
// final answer's (it once took the answer's BLEU out of the answer's
// reward and left the attempt's BLEU in the attempt's).
func TestNoBleuShapingCoversBothSegments(t *testing.T) {
	samples := corpus(t, 2)
	s := samples[0]
	ep := &policy.Episode{
		FinalText:   s.RefText,
		AttemptText: s.O0Text,
		FormatOK:    true,
		Diag:        &policy.DiagRecord{PredictedClass: policy.DiagOK},
	}
	label := bleu.Scorer(s.RefText)
	b, attemptB := label(ep.FinalText), label(ep.AttemptText)
	if attemptB <= 0 || b <= 0 {
		t.Fatalf("test setup: expected nonzero BLEU terms, got %v / %v", b, attemptB)
	}
	shaped, unshaped := scoreIn(ModeCorrectnessCoT, true, ep, s), scoreIn(ModeCorrectnessCoT, false, ep, s)
	if got, want := unshaped.rAnswer, shaped.rAnswer-b; math.Abs(got-want) > 1e-9 {
		t.Errorf("answer segment: unshaped = %v, want %v", got, want)
	}
	if got, want := unshaped.rAttempt, shaped.rAttempt-attemptB; math.Abs(got-want) > 1e-9 {
		t.Errorf("attempt segment: unshaped = %v, want %v", got, want)
	}
}
