package grpo

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/bleu"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
	"veriopt/internal/seqopt"
)

// policies are the two constructors every trainer-behaviour table runs
// over: build wires a fresh trainer of the policy over o, data and
// workers (the token policy harvesting failures) and returns it with
// the parameters its steps update.
var policies = []struct {
	name   string
	corpus func(*testing.T, int) []*dataset.Sample
	build  func(o oracle.Oracle, data []*dataset.Sample, workers int) (*Trainer, func() [][]float64)
}{
	{"token", corpus, func(o oracle.Oracle, data []*dataset.Sample, workers int) (*Trainer, func() [][]float64) {
		m := policy.New(policy.CapQwen3B, 7)
		cfg := DefaultConfig()
		cfg.Workers = workers
		tr := NewTrainer(o, m, data, cfg, 21)
		tr.CollectFailures = true
		return tr, func() [][]float64 { return append([][]float64{m.B, m.S, m.P}, m.Diag.W...) }
	}},
	{"sequence", seqCorpus, func(o oracle.Oracle, data []*dataset.Sample, workers int) (*Trainer, func() [][]float64) {
		m := seqopt.NewModel(5)
		return NewSequenceTrainer(o, m, data, 0, workers, 23), func() [][]float64 { return [][]float64{m.B, m.S} }
	}},
}

// snapshot deep-copies a policy's parameters.
func snapshot(params [][]float64) [][]float64 {
	out := make([][]float64, len(params))
	for i, vs := range params {
		out[i] = append([]float64(nil), vs...)
	}
	return out
}

// TestStepDeterministicAcrossWorkers is the reproducibility contract:
// the GRPO trajectory — the reward history, every parameter and the
// failure harvest — must be bit-identical at any worker count, because
// every episode draws from its own derived rand.Rand and gradient
// accumulation is sequential in grid order. Run under -race by tier 2.
func TestStepDeterministicAcrossWorkers(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			data := p.corpus(t, 24)
			run := func(workers int) (*Trainer, [][]float64) {
				tr, params := p.build(oracle.NewStack(oracle.Config{}), data, workers)
				trainBg(tr.TrainCtx, 4)
				return tr, params()
			}
			t1, p1 := run(1)
			t4, p4 := run(4)
			if !reflect.DeepEqual(t1.RewardHistory, t4.RewardHistory) {
				t.Fatalf("reward history differs: %v vs %v", t1.RewardHistory, t4.RewardHistory)
			}
			if !reflect.DeepEqual(p1, p4) {
				t.Fatal("parameters differ between worker counts")
			}
			if len(t1.Failures) != len(t4.Failures) {
				t.Fatalf("failure harvest differs: %d vs %d", len(t1.Failures), len(t4.Failures))
			}
			for i := range t1.Failures {
				if !reflect.DeepEqual(t1.Failures[i].UsedRules, t4.Failures[i].UsedRules) ||
					t1.Failures[i].TrueDiag != t4.Failures[i].TrueDiag {
					t.Fatalf("failure %d differs between worker counts", i)
				}
			}
		})
	}
}

func TestTrainerCacheGetsHits(t *testing.T) {
	tr, _ := policies[0].build(oracle.NewStack(oracle.Config{}), corpus(t, 8), 4)
	trainBg(tr.TrainCtx, 2)
	_, cs := tr.oracle.(oracle.StatsSource).OracleStats()
	if cs.Queries == 0 {
		t.Fatal("no verification queries recorded")
	}
	if cs.Hits == 0 {
		t.Fatalf("expected cache hits across a GRPO group: %+v", cs)
	}
}

// TestStepCancellationPromptNoUpdate is the cancellation contract for
// training: a step canceled before it starts, or mid-rollout, returns
// promptly with the context's error, applies NO update, appends no
// reward history, and leaves the input cursor where it was — the
// resumed step replays the batch of an uncanceled run's first step.
func TestStepCancellationPromptNoUpdate(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			data := p.corpus(t, 12)
			untouched := func(tr *Trainer, params func() [][]float64, before [][]float64) {
				t.Helper()
				if len(tr.RewardHistory) != 0 || tr.cursor != 0 {
					t.Fatalf("canceled step appended history %v or moved the cursor to %d", tr.RewardHistory, tr.cursor)
				}
				if !reflect.DeepEqual(params(), before) {
					t.Fatal("canceled step updated the policy")
				}
			}

			tr, params := p.build(testStack, data, 1)
			before := snapshot(params())
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := tr.StepCtx(ctx); err == nil {
				t.Fatal("pre-canceled StepCtx returned nil error")
			}
			untouched(tr, params, before)

			started := make(chan struct{}, 1)
			blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done() // wedge every verification until canceled
				return alive.CanceledResult(ctx.Err())
			})
			tr, params = p.build(blocking, data, 4)
			before = snapshot(params())
			ctx, cancel = context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := tr.StepCtx(ctx)
				done <- err
			}()
			select {
			case <-started:
			case err := <-done:
				t.Fatalf("step finished (err %v) without asking the oracle", err)
			}
			cancel()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("canceled StepCtx returned nil error")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("StepCtx did not return promptly after cancel")
			}
			untouched(tr, params, before)

			// The cursor rewound: the resumed first step replays the same
			// batch as an uncanceled run's first step.
			tr.oracle = oracle.NewStack(oracle.Config{})
			norm := stepBg(tr.StepCtx)
			fresh, freshParams := p.build(oracle.NewStack(oracle.Config{}), data, 1)
			if freshNorm := stepBg(fresh.StepCtx); tr.RewardHistory[0] != fresh.RewardHistory[0] || norm != freshNorm {
				t.Fatalf("resumed step diverged: reward %v vs %v, norm %v vs %v", tr.RewardHistory[0], fresh.RewardHistory[0], norm, freshNorm)
			}
			if !reflect.DeepEqual(params(), freshParams()) {
				t.Fatal("resumed step's parameters differ from the uncanceled run's")
			}
		})
	}
}

// TestTrainCtxStopsEarly: cancellation between steps truncates the
// run without an extra partial entry.
func TestTrainCtxStopsEarly(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			tr, _ := p.build(oracle.NewStack(oracle.Config{}), p.corpus(t, 4), 1)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := tr.TrainCtx(ctx, 5)
			if err == nil || len(tr.RewardHistory) != 0 || tr.cursor != 0 {
				t.Fatalf("pre-canceled TrainCtx: history=%v cursor=%d err=%v", tr.RewardHistory, tr.cursor, err)
			}
		})
	}
}

// TestStepEmptyDataNoPanic: Step used to divide by the corpus length
// before checking it, panicking on an empty corpus; an empty step
// records one 0 (one entry per Step) and leaves the cursor alone.
func TestStepEmptyDataNoPanic(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			tr, _ := p.build(testStack, nil, 1)
			stepBg(tr.StepCtx)
			if len(tr.RewardHistory) != 1 || tr.RewardHistory[0] != 0 {
				t.Fatalf("history = %v, want one empty step's 0", tr.RewardHistory)
			}
			if tr.cursor != 0 {
				t.Fatalf("an empty step moved the cursor to %d", tr.cursor)
			}
		})
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
	if got, want := unshaped.r[answer], shaped.r[answer]-b; math.Abs(got-want) > 1e-9 {
		t.Errorf("answer segment: unshaped = %v, want %v", got, want)
	}
	if got, want := unshaped.r[attempt], shaped.r[attempt]-attemptB; math.Abs(got-want) > 1e-9 {
		t.Errorf("attempt segment: unshaped = %v, want %v", got, want)
	}
}
