package grpo

import (
	"context"
	"math/rand"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// RewardMode selects the training objective.
type RewardMode int

// Reward modes for the curriculum stages.
const (
	// ModeCorrectness uses Eq. 1 only (Model Zero, generic prompt).
	ModeCorrectness RewardMode = iota
	// ModeCorrectnessCoT uses Eq. 1 + Eq. 2 (Model-Correctness,
	// augmented prompt).
	ModeCorrectnessCoT
	// ModeLatency uses Eqs. 3–4 (Model-Latency; labels unused).
	ModeLatency
)

// Config parameterizes the trainer. The batch shape is fixed
// (batchInputs), and so are the verifier's bounds (trainVerify).
type Config struct {
	// GroupSize is G, the number of rollouts per input compared
	// against each other (relative advantages).
	GroupSize int
	// LR is the gradient-ascent learning rate.
	LR float64
	// ClipNorm bounds the global gradient norm (the paper's stability
	// device in place of the KL penalty).
	ClipNorm float64
	// Mode selects the reward. ModeCorrectnessCoT also rolls out with
	// the diagnose-and-correct protocol (the augmented prompt).
	Mode RewardMode
	// UMax is Eq. 4's saturation threshold (Mode == ModeLatency), as
	// ComputeUMax returns it for the training set; 1 or less reads as
	// 2 (see latencyReward).
	UMax float64
	// SeqLevelNorm switches from token-level (DAPO-style, the paper's
	// choice) to per-sequence loss normalization — kept for the
	// ablation study.
	SeqLevelNorm bool
	// NoGroupBaseline replaces group-relative advantages with raw
	// rewards (REINFORCE) — kept for the ablation study.
	NoGroupBaseline bool
	// NoBleuShaping zeroes the BLEU term b_i of Eq. 1 — ablation of
	// the gradient-starvation mitigation. It removes the shaping term
	// from both reward segments (answer and attempt).
	NoBleuShaping bool
	// Workers bounds the concurrency of the per-step rollout +
	// verification fan-out (<= 0 selects runtime.NumCPU()). Results
	// are bit-identical at any worker count: every episode draws from
	// its own rand.Rand derived from the trainer seed and grid
	// position, and gradient accumulation stays sequential in grid
	// order.
	Workers int
}

// GRPO's recipe (§IV-B) as both trainers run it: G rollouts per input
// (DefaultConfig's GroupSize, the sequence trainer's fixed G), inputs
// per step, the global gradient-norm bound (DefaultConfig's ClipNorm,
// the sequence trainer's fixed bound). Each rollout samples at
// temperature 1 from the rng grid hands it.
const (
	groupSize   = 6
	batchInputs = 8
	clipNorm    = 5
)

// DefaultConfig returns the settings used by the reproduction's
// training runs.
func DefaultConfig() Config {
	return Config{GroupSize: groupSize, LR: 30, ClipNorm: clipNorm}
}

// trainVerify bounds each verification query of a training run, in
// both trainers.
var trainVerify = alive.Options{MaxPaths: 256, MaxSteps: 2048, SolverBudget: 40000}

// FailureSample is a Model Zero mistake harvested for the
// diagnostic-augmented corpus (Stage 1 of the pipeline).
type FailureSample struct {
	Sample *dataset.Sample
	// TrueDiag is the verifier's actual diagnostic.
	TrueDiag string
	// TrueClass is the verdict category of the attempt.
	TrueClass policy.DiagClass
	// UsedRules names the rules the failing trajectory applied.
	UsedRules []string
}

// Trainer runs GRPO over a model and corpus; Data, the oracle and
// RewardHistory are the rollout core's (rollout.go).
type Trainer struct {
	Model *policy.Model
	cfg   Config
	rollout

	// Failures accumulates Model Zero mistakes when CollectFailures is
	// set.
	CollectFailures bool
	Failures        []*FailureSample
}

// NewTrainer wires a trainer whose rewards o gates. Rollout sampling
// is driven by per-episode RNGs derived from seed, so a trainer's
// trajectory depends only on (model, data, cfg, seed) — never on
// Cfg.Workers.
func NewTrainer(o oracle.Oracle, m *policy.Model, data []*dataset.Sample, cfg Config, seed int64) *Trainer {
	return &Trainer{Model: m, cfg: cfg, rollout: rollout{Data: data, oracle: o, seed: seed}}
}

// episodeScore is one rollout cell: the sample, the episode, the
// attempt's verdict (which Model Zero's failure harvest reads) and the
// rewards score computed. The total reward r = rAnswer + rThink; the
// components keep separate group-relative advantages so that
// think-block tokens (the attempt and the diagnosis) are not credited
// with the corrected answer's reward — without the split, a
// corrupt-then-correct episode would reinforce corrupting first.
type episodeScore struct {
	s        *dataset.Sample
	ep       *policy.Episode
	attempt  alive.Result
	r        float64
	rAnswer  float64
	rThink   float64
	rAttempt float64
}

// StepCtx performs one GRPO update: sample a batch of inputs, roll out G
// completions each in parallel across Cfg.Workers goroutines, verify
// through the oracle, compute group-relative advantages, and apply a
// single clipped gradient-ascent update. It returns the update's
// pre-clip gradient norm; the step's mean reward is appended to
// RewardHistory. The update is bit-identical at any worker count. When
// ctx ends mid-rollout the step aborts promptly with NO model update
// and the input cursor rewound (see grid).
func (tr *Trainer) StepCtx(ctx context.Context) (float64, error) {
	m := tr.Model
	cfg := tr.cfg
	cells, err := grid(ctx, &tr.rollout, batchInputs, cfg.GroupSize, cfg.Workers,
		func(s *dataset.Sample) func(*rand.Rand) episodeScore {
			l := labelOf(s, &cfg)
			return func(rng *rand.Rand) episodeScore {
				ep := m.Generate(s.O0, policy.GenOptions{Rng: rng, Augmented: cfg.Mode == ModeCorrectnessCoT})
				return score(ctx, tr.oracle, s, l, ep, &cfg)
			}
		})
	if cells == nil {
		return 0, err
	}

	// Everything below is sequential and walks the grid in its
	// deterministic (batch, group) order: failure harvesting, the mean
	// reward, and gradient accumulation.
	totalTokens := 0
	meanReward := 0.0
	for _, es := range cells {
		if tr.CollectFailures && es.attempt.Verdict != alive.Equivalent {
			tr.Failures = append(tr.Failures, &FailureSample{
				Sample:    es.s,
				TrueDiag:  es.attempt.Diag,
				TrueClass: classOf(es.attempt.Verdict),
				UsedRules: usedRules(m, es.ep),
			})
		}
		totalTokens += tokensOf(es.ep)
		meanReward += es.r
	}
	tr.RewardHistory = append(tr.RewardHistory, meanReward/float64(len(cells)))

	// Group-relative advantages, one per reward component, normalized
	// per token over the whole batch (or per sequence, for the
	// ablation), then the policy gradient.
	answer := advantages(cells, cfg.GroupSize, cfg.NoGroupBaseline, func(e *episodeScore) float64 { return e.rAnswer })
	think := advantages(cells, cfg.GroupSize, cfg.NoGroupBaseline, func(e *episodeScore) float64 { return e.rThink })
	attempt := advantages(cells, cfg.GroupSize, cfg.NoGroupBaseline, func(e *episodeScore) float64 { return e.rAttempt })
	g := m.Grad()
	gDiag := make([][]float64, len(m.Diag.W))
	for c := range gDiag {
		gDiag[c] = make([]float64, len(m.Diag.W[c]))
	}
	for i, es := range cells {
		norm := float64(totalTokens)
		if cfg.SeqLevelNorm {
			norm = float64(tokensOf(es.ep)) * float64(len(cells))
		}
		tr.accumulateEpisode(g, gDiag, es.ep, advPair{answer: answer[i] / norm, think: think[i] / norm, attempt: attempt[i] / norm})
	}
	return m.ClipStep(g, m.Diag.W, gDiag, cfg.LR, cfg.ClipNorm, m.Cap.MaxBias), nil
}

// advPair carries the per-component advantages.
type advPair struct{ answer, think, attempt float64 }

// accumulateEpisode adds ∇ log π(trajectory) · advantage into g,
// routing each component's advantage to the tokens that produced it:
// the attempt gets the think advantage (plus the answer advantage
// when it *is* the answer), the correction gets the answer advantage,
// and the diagnosis decision gets the think advantage.
func (tr *Trainer) accumulateEpisode(g *policy.Linear, gDiag [][]float64, ep *policy.Episode, adv advPair) {
	m := tr.Model
	addRecords := func(recs []policy.ActionRecord, h []float64, scale float64) {
		for _, rec := range recs {
			m.AddGrad(g, rec, h, scale)
		}
	}
	// Attempt tokens are judged by the attempt's own Eq. 1 (per-segment
	// credit assignment; without this, copy-and-predict-OK episodes
	// harvest the trivially-perfect CoT reward through their stop
	// token). Correction tokens are judged by the final answer; the
	// diagnosis decision by the CoT agreement.
	attemptScale := adv.attempt
	if ep.CorrectionUsed {
		addRecords(ep.CorrectionActs, ep.CorrH, adv.answer)
	} else if ep.Diag == nil {
		attemptScale = adv.answer // generic prompt: answer == attempt
	}
	addRecords(ep.Actions, ep.H, attemptScale)
	if ep.Diag != nil {
		m.Diag.AddGrad(gDiag, ep.Diag.Features, ep.Diag.ClassIdx, adv.think)
	}
}

func tokensOf(ep *policy.Episode) int {
	n := len(ep.Actions) + len(ep.CorrectionActs)
	if ep.Diag != nil {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

func classOf(v alive.Verdict) policy.DiagClass {
	switch v {
	case alive.SyntaxError:
		return policy.DiagSyntaxError
	case alive.Equivalent:
		return policy.DiagOK
	default:
		return policy.DiagSemanticError
	}
}

func usedRules(m *policy.Model, ep *policy.Episode) []string {
	var out []string
	for _, rec := range ep.Actions {
		a := rec.Cands[rec.Chosen]
		if a < len(m.Rules) {
			out = append(out, m.Rules[a].Name)
		}
	}
	return out
}

// TrainCtx runs up to n steps under ctx, returning, on cancellation,
// the context's error.
func (tr *Trainer) TrainCtx(ctx context.Context, n int) error {
	return train(ctx, n, tr.StepCtx)
}

// EMA smooths a series with the paper's 0.95 exponential moving
// average (Fig. 4 presentation).
func EMA(series []float64, alpha float64) []float64 {
	out := make([]float64, len(series))
	if len(series) == 0 {
		return out
	}
	acc := series[0]
	for i, v := range series {
		acc = alpha*acc + (1-alpha)*v
		out[i] = acc
	}
	return out
}
