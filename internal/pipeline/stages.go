package pipeline

import (
	"context"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
	"veriopt/internal/sft"
	"veriopt/internal/vcache"
)

// StageConfig sizes the curriculum. The defaults are scaled for
// commodity wall-clock; paper-scale runs pass larger step counts via
// the CLI.
type StageConfig struct {
	Capacity policy.Capacity
	Seed     int64

	Stage1Steps int // Model Zero GRPO steps (also harvests failures)
	Stage2Steps int // Model-Correctness GRPO steps
	Stage3Steps int // Model-Latency GRPO steps

	// GRPO configures every stage's trainer (RunCtx sets Mode, Augmented
	// and Latency per stage); its Workers also bounds each checkpoint
	// evaluation. The result is bit-identical at any worker count.
	GRPO grpo.Config
	SFT  sft.Config // the warm-up's, Epochs included

	// Oracle answers verification queries for all stages; nil selects
	// the shared default stack (oracle.Default), whose cache memoizes
	// verdicts across stages.
	Oracle oracle.Oracle
	// Obs, when non-nil, receives stage_start/stage_end trace events
	// with wall time, verdict/cache deltas, and reward summaries.
	Obs *obs.Recorder
	// Ckpt, when non-nil with a Dir, makes the run durable: an atomic
	// checkpoint at every stage boundary, with bit-identical resume
	// (see CkptConfig).
	Ckpt *CkptConfig
}

// DefaultStageConfig returns the reduced-scale defaults.
func DefaultStageConfig() StageConfig {
	return StageConfig{
		Capacity:    policy.CapQwen3B,
		Seed:        1,
		Stage1Steps: 10,
		Stage2Steps: 120,
		Stage3Steps: 80,
		GRPO:        grpo.DefaultConfig(),
		SFT:         sft.DefaultConfig(),
	}
}

// Eq. 3–4's settings, the paper's, for the curriculum and the pass
// workload alike: UMax is this percentile of instcombine's speedups on
// the training split, and latencyGamma the convex shaping exponent.
const (
	umaxPercentile = 80
	latencyGamma   = 2
)

// Result bundles the four curriculum models and their training
// traces. A canceled RunCtx returns it partially filled: the model of
// the interrupted stage (and of the stages after it) stays nil, while
// every completed stage keeps its model and history.
type Result struct {
	Base        *policy.Model // untrained foundation model
	ModelZero   *policy.Model
	WarmUp      *policy.Model
	Correctness *policy.Model
	Latency     *policy.Model

	// Reward histories per stage (Fig. 4 raw series). Present for the
	// interrupted stage too, truncated at the canceled step.
	zeroHistory        []float64
	CorrectnessHistory []float64
	LatencyHistory     []float64

	Failures []*grpo.FailureSample
	UMax     float64
	sftStats sft.Stats
}

// stageSpan instruments one curriculum stage for the trace: it
// snapshots the oracle's counters at stage start so stage_end can
// carry the per-stage deltas rather than process-lifetime totals.
type stageSpan struct {
	rec  *obs.Recorder
	name string
	t0   time.Time
	src  oracle.StatsSource
	os0  oracle.Stats
	cs0  vcache.Stats
}

func beginStage(rec *obs.Recorder, o oracle.Oracle, name string) *stageSpan {
	sp := &stageSpan{rec: rec, name: name, t0: time.Now()}
	if src, ok := o.(oracle.StatsSource); ok {
		sp.src = src
		sp.os0, sp.cs0 = src.OracleStats()
	}
	rec.Emit(obs.Event{Kind: "stage_start", Stage: name})
	return sp
}

func (sp *stageSpan) end(steps int, rewards []float64, note string) {
	ev := obs.Event{
		Kind:   "stage_end",
		Stage:  sp.name,
		Steps:  steps,
		WallMs: float64(time.Since(sp.t0).Microseconds()) / 1000,
		Reward: obs.Summarize(rewards),
		Note:   note,
	}
	if sp.src != nil {
		os1, cs1 := sp.src.OracleStats()
		ev.Verdicts = obs.DeltaVerdicts(sp.os0, os1)
		ev.Cache = obs.DeltaCache(sp.cs0, cs1)
	}
	sp.rec.Emit(ev)
}

// devEvalCtx scores a model for checkpoint selection: the paper's
// headline different-correct fraction, with geomean speedup (which
// already embeds the fallback-to-O0 correctness penalty) breaking
// ties.
func devEvalCtx(ctx context.Context, m *policy.Model, dev []*dataset.Sample, augmented bool, ec EvalConfig) (float64, error) {
	ec.Verify = alive.Options{MaxPaths: 256, MaxSteps: 2048, SolverBudget: 30000}
	rep, err := EvaluateCtx(ctx, m, dev, augmented, ec)
	if err != nil {
		return 0, err
	}
	return 2*rep.DifferentCorrectFrac() + GeomeanSpeedup(rep)/100, nil
}

// trainWithCheckpoints runs steps GRPO steps, evaluating on the dev
// split before the first and every evalEvery steps after it, and
// returns the best model seen (the paper's "selecting the best
// checkpoint for evaluation"). On cancellation it returns the best
// model so far with the context's error.
func trainWithCheckpoints(ctx context.Context, tr *grpo.Trainer, steps, evalEvery int, dev []*dataset.Sample, augmented bool, ec EvalConfig) (*policy.Model, error) {
	best := tr.Model.Clone()
	bestScore, err := devEvalCtx(ctx, best, dev, augmented, ec)
	if err != nil {
		return best, err
	}
	for i := 0; i < steps; i++ {
		if _, err := tr.StepCtx(ctx); err != nil {
			return best, err
		}
		if (i+1)%evalEvery == 0 || i == steps-1 {
			score, err := devEvalCtx(ctx, tr.Model, dev, augmented, ec)
			if err != nil {
				return best, err
			}
			if score > bestScore {
				bestScore = score
				best = tr.Model.Clone()
			}
		}
	}
	return best, nil
}

// RunCtx executes the full curriculum on the training samples. When ctx
// ends, the in-flight stage aborts promptly (see grpo.Trainer.StepCtx
// and EvaluateCtx), the partial Result accumulated so far is returned
// with the context's error, and the interrupted stage's model is left
// nil — its history, and every completed stage's model, survive for
// partial reporting.
//
// With cfg.Ckpt set the run is durable: every completed stage is
// checkpointed atomically, and a resumed run (CkptConfig.Resume) skips
// the completed stages and replays the interrupted one from its start
// — the final models are bit-identical to an uninterrupted run's.
func RunCtx(ctx context.Context, train []*dataset.Sample, cfg StageConfig) (*Result, error) {
	res := &Result{}
	res.Base = policy.New(cfg.Capacity, cfg.Seed)
	o := oracle.OrDefault(cfg.Oracle)
	ec := EvalConfig{Workers: cfg.GRPO.Workers, Oracle: o}
	// Hold out a slice of the training set for checkpoint selection
	// (never the validation set).
	devN := len(train) / 5
	if devN < 4 {
		devN = len(train)
	}
	dev := train[len(train)-devN:]

	ck, err := newCkptRunner(cfg, train)
	if err != nil {
		return res, err
	}
	if err := ck.apply(res, train); err != nil {
		return res, err
	}

	// Stage 1: Model Zero — raw GRPO with the generic prompt. Its
	// training space, validated by the checker, yields the
	// diagnostic-augmented corpus.
	if ck.state.Stage <= stageModelZero {
		sp := beginStage(cfg.Obs, o, "model-zero")
		zero := res.Base.Clone()
		c1 := cfg.GRPO
		c1.Mode = grpo.ModeCorrectness
		c1.Augmented = false
		t1 := grpo.NewTrainer(zero, train, c1, cfg.Seed+101)
		t1.Oracle = o
		t1.CollectFailures = true
		_, err := t1.TrainCtx(ctx, cfg.Stage1Steps)
		res.zeroHistory = t1.RewardHistory
		res.Failures = t1.Failures
		if err != nil {
			sp.end(len(t1.RewardHistory), t1.RewardHistory, "canceled")
			return res, err
		}
		sp.end(cfg.Stage1Steps, t1.RewardHistory, "")
		res.ModelZero = zero
		if err := ck.boundary(stageWarmUp, res); err != nil {
			return res, err
		}
	}

	// Stage 2a: Warm-up — SFT from the *base* model (Model Zero is
	// only the sample generator, §III-C1) on first-time and
	// correction-augmented samples.
	if ck.state.Stage <= stageWarmUp {
		sp := beginStage(cfg.Obs, o, "warm-up")
		warm := res.Base.Clone()
		res.sftStats, err = sft.WarmUpCtx(ctx, warm, train, res.Failures, cfg.SFT)
		if err != nil {
			sp.end(res.sftStats.CloneSteps, nil, "canceled")
			return res, err
		}
		sp.end(res.sftStats.CloneSteps, nil, "")
		res.WarmUp = warm
		if err := ck.boundary(stageCorrectness, res); err != nil {
			return res, err
		}
	}

	// Stage 2b: Model-Correctness — GRPO with augmented prompts,
	// Eq. 1 + Eq. 2.
	if ck.state.Stage <= stageCorrectness {
		sp := beginStage(cfg.Obs, o, "model-correctness")
		corr := res.WarmUp.Clone()
		c2 := cfg.GRPO
		c2.Mode = grpo.ModeCorrectnessCoT
		c2.Augmented = true
		// Stage 2 refines the warm-up solution; a gentler learning rate
		// and larger groups avoid collapsing into the copy-and-predict-OK
		// reward-hacking attractor that destabilizes raw GRPO (§III-C2).
		c2.LR = cfg.GRPO.LR / 3
		c2.GroupSize = cfg.GRPO.GroupSize + 2
		c2.ClipNorm = cfg.GRPO.ClipNorm / 2
		t2 := grpo.NewTrainer(corr, train, c2, cfg.Seed+202)
		t2.Oracle = o
		best2, err := trainWithCheckpoints(ctx, t2, cfg.Stage2Steps, 10, dev, true, ec)
		res.CorrectnessHistory = t2.RewardHistory
		if err != nil {
			sp.end(len(t2.RewardHistory), t2.RewardHistory, "canceled")
			return res, err
		}
		sp.end(cfg.Stage2Steps, t2.RewardHistory, "")
		res.Correctness = best2
		if err := ck.boundary(stageLatency, res); err != nil {
			return res, err
		}
	}

	// Stage 3: Model-Latency — incremental GRPO with the latency
	// reward; instcombine labels and the think-protocol are dropped.
	if ck.state.Stage <= stageLatency {
		sp := beginStage(cfg.Obs, o, "model-latency")
		lat := res.Correctness.Clone()
		res.UMax = grpo.ComputeUMax(train, umaxPercentile)
		c3 := cfg.GRPO
		c3.Mode = grpo.ModeLatency
		c3.Augmented = false
		c3.Latency = grpo.LatencyRewardParams{UMax: res.UMax, Gamma: latencyGamma}
		t3 := grpo.NewTrainer(lat, train, c3, cfg.Seed+303)
		t3.Oracle = o
		best3, err := trainWithCheckpoints(ctx, t3, cfg.Stage3Steps, 10, dev, false, ec)
		res.LatencyHistory = t3.RewardHistory
		if err != nil {
			sp.end(len(t3.RewardHistory), t3.RewardHistory, "canceled")
			return res, err
		}
		sp.end(cfg.Stage3Steps, t3.RewardHistory, "")
		res.Latency = best3
		if err := ck.boundary(stageDone, res); err != nil {
			return res, err
		}
	}

	return res, nil
}
