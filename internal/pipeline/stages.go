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
	"veriopt/internal/vcache"
)

// StageConfig sizes the curriculum. The defaults are scaled for
// commodity wall-clock; paper-scale runs pass larger step counts via
// the CLI. Every stage trains the paper's 3B model (policy.CapQwen3B).
type StageConfig struct {
	Seed int64

	Stage1Steps int // Model Zero GRPO steps (also harvests failures)
	Stage2Steps int // Model-Correctness GRPO steps
	Stage3Steps int // Model-Latency GRPO steps

	// GRPO configures every stage's trainer (RunCtx sets Mode and
	// UMax per stage); its Workers also bounds each checkpoint
	// evaluation. The result is bit-identical at any worker count.
	GRPO         grpo.Config
	WarmupEpochs int // the warm-up's passes over the training set

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
		Seed:         1,
		Stage1Steps:  10,
		Stage2Steps:  120,
		Stage3Steps:  80,
		GRPO:         grpo.DefaultConfig(),
		WarmupEpochs: 3,
	}
}

// Result bundles the four curriculum models and their training
// traces. A canceled RunCtx returns it partially filled: the model of
// the interrupted stage (and of the stages after it) stays nil, while
// every completed stage keeps its model and history. It is also what a
// checkpoint holds (curriculumState), under the JSON names below.
type Result struct {
	Base        *policy.Model `json:"-"` // untrained foundation model
	ModelZero   *policy.Model `json:"model_zero,omitempty"`
	WarmUp      *policy.Model `json:"warm_up,omitempty"`
	Correctness *policy.Model `json:"correctness,omitempty"`
	Latency     *policy.Model `json:"latency,omitempty"`

	// Reward histories per stage (Fig. 4 raw series). Present for the
	// interrupted stage too, truncated at the canceled step.
	ZeroHistory        []float64 `json:"zero_history,omitempty"`
	CorrectnessHistory []float64 `json:"correctness_history,omitempty"`
	LatencyHistory     []float64 `json:"latency_history,omitempty"`

	Failures []*grpo.FailureSample `json:"-"` // checkpointed by sample name
	UMax     float64               `json:"umax,omitempty"`
}

// Latest returns the most advanced model the run finished and the name
// of its stage, or "" and nil when no stage finished.
func (r *Result) Latest() (string, *policy.Model) {
	models := [...]*policy.Model{r.ModelZero, r.WarmUp, r.Correctness, r.Latency}
	for i := len(models) - 1; i >= 0; i-- {
		if models[i] != nil {
			return stages[i], models[i]
		}
	}
	return "", nil
}

// traceStage runs body as one stage of the trace: stage_start, then
// stage_end with the steps and rewards body reports, the note
// "canceled" when it fails, and the oracle's verdict and cache deltas
// over the stage rather than process-lifetime totals.
func traceStage(rec *obs.Recorder, o oracle.Oracle, name string, body func() (steps int, rewards []float64, err error)) error {
	t0 := time.Now()
	src, _ := o.(oracle.StatsSource)
	var cs0 vcache.Stats
	if src != nil {
		_, cs0 = src.OracleStats()
	}
	rec.Emit(obs.Event{Kind: "stage_start", Stage: name})
	steps, rewards, err := body()
	ev := obs.Event{
		Kind:   "stage_end",
		Stage:  name,
		Steps:  steps,
		WallMs: float64(time.Since(t0).Microseconds()) / 1000,
		Reward: obs.Summarize(rewards),
	}
	if err != nil {
		ev.Note = "canceled"
	}
	if src != nil {
		_, cs1 := src.OracleStats()
		ev.Verdicts, ev.Cache = obs.Delta(cs0, cs1)
	}
	rec.Emit(ev)
	return err
}

// devEvalCtx scores a model for checkpoint selection: the paper's
// headline different-correct fraction, with geomean speedup (which
// already embeds the fallback-to-O0 correctness penalty) breaking
// ties.
func devEvalCtx(ctx context.Context, o oracle.Oracle, m *policy.Model, dev []*dataset.Sample, augmented bool, ec EvalConfig) (float64, error) {
	ec.Verify = alive.Options{MaxPaths: 256, MaxSteps: 2048, SolverBudget: 30000}
	rep, err := EvaluateCtx(ctx, o, m, dev, augmented, ec)
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
func trainWithCheckpoints(ctx context.Context, o oracle.Oracle, tr *grpo.Trainer, steps, evalEvery int, dev []*dataset.Sample, augmented bool, ec EvalConfig) (*policy.Model, error) {
	best := tr.Model.Clone()
	bestScore, err := devEvalCtx(ctx, o, best, dev, augmented, ec)
	if err != nil {
		return best, err
	}
	for i := 0; i < steps; i++ {
		if _, err := tr.StepCtx(ctx); err != nil {
			return best, err
		}
		if (i+1)%evalEvery == 0 || i == steps-1 {
			score, err := devEvalCtx(ctx, o, tr.Model, dev, augmented, ec)
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

// RunCtx executes the full curriculum on the training samples, every
// stage's rewards and checkpoint evaluations verified by o. When ctx
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
func RunCtx(ctx context.Context, o oracle.Oracle, train []*dataset.Sample, cfg StageConfig) (*Result, error) {
	base := policy.New(policy.CapQwen3B, cfg.Seed)
	ck, err := newCkptRunner(cfg, train)
	if err != nil {
		return &Result{Base: base}, err
	}
	res := ck.state.Result
	res.Base = base
	if res.Failures, err = resumeFailures(ck.state.Failures, train); err != nil {
		return res, err
	}
	ec := EvalConfig{Workers: cfg.GRPO.Workers}
	// Hold out a slice of the training set for checkpoint selection
	// (never the validation set).
	devN := len(train) / 5
	if devN < 4 {
		devN = len(train)
	}
	dev := train[len(train)-devN:]

	// body trains the named stage, stores its history in res and, when
	// it finishes, its model.
	body := func(name string) (int, []float64, error) {
		switch name {
		case "model-zero":
			// Stage 1: Model Zero — raw GRPO with the generic prompt.
			// Its training space, validated by the checker, yields the
			// diagnostic-augmented corpus.
			zero := base.Clone()
			c1 := cfg.GRPO
			c1.Mode = grpo.ModeCorrectness
			t1 := grpo.NewTrainer(o, zero, train, c1, cfg.Seed+101)
			t1.CollectFailures = true
			err := t1.TrainCtx(ctx, cfg.Stage1Steps)
			res.ZeroHistory, res.Failures = t1.RewardHistory, t1.Failures
			if err == nil {
				res.ModelZero = zero
			}
			return len(t1.RewardHistory), t1.RewardHistory, err
		case "warm-up":
			// Stage 2a: Warm-up — SFT from the *base* model (Model Zero
			// is only the sample generator, §III-C1) on first-time and
			// correction-augmented samples (warmup.go).
			warm := base.Clone()
			steps, err := WarmUpCtx(ctx, warm, train, res.Failures, cfg.WarmupEpochs)
			if err == nil {
				res.WarmUp = warm
			}
			return steps, nil, err
		case "model-correctness":
			// Stage 2b: Model-Correctness — GRPO with augmented
			// prompts, Eq. 1 + Eq. 2.
			c2 := cfg.GRPO
			c2.Mode = grpo.ModeCorrectnessCoT
			// Stage 2 refines the warm-up solution; a gentler learning
			// rate and larger groups avoid collapsing into the
			// copy-and-predict-OK reward-hacking attractor that
			// destabilizes raw GRPO (§III-C2).
			c2.LR = cfg.GRPO.LR / 3
			c2.GroupSize = cfg.GRPO.GroupSize + 2
			c2.ClipNorm = cfg.GRPO.ClipNorm / 2
			t2 := grpo.NewTrainer(o, res.WarmUp.Clone(), train, c2, cfg.Seed+202)
			best, err := trainWithCheckpoints(ctx, o, t2, cfg.Stage2Steps, 10, dev, true, ec)
			res.CorrectnessHistory = t2.RewardHistory
			if err == nil {
				res.Correctness = best
			}
			return len(t2.RewardHistory), t2.RewardHistory, err
		default: // "model-latency"
			// Stage 3: Model-Latency — incremental GRPO with the
			// latency reward; instcombine labels and the think-protocol
			// are dropped.
			res.UMax = grpo.ComputeUMax(train)
			c3 := cfg.GRPO
			c3.Mode = grpo.ModeLatency
			c3.UMax = res.UMax
			t3 := grpo.NewTrainer(o, res.Correctness.Clone(), train, c3, cfg.Seed+303)
			best, err := trainWithCheckpoints(ctx, o, t3, cfg.Stage3Steps, 10, dev, false, ec)
			res.LatencyHistory = t3.RewardHistory
			if err == nil {
				res.Latency = best
			}
			return len(t3.RewardHistory), t3.RewardHistory, err
		}
	}
	for i := ck.state.Stage; i < len(stages)-1; i++ {
		if err := traceStage(cfg.Obs, o, stages[i], func() (int, []float64, error) { return body(stages[i]) }); err != nil {
			return res, err
		}
		if err := ck.boundary(i + 1); err != nil {
			return res, err
		}
	}
	return res, nil
}
