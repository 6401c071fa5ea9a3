package grpo

import (
	"context"
	"math/rand"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
	"veriopt/internal/rewrite"
	"veriopt/internal/seqopt"
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

// GRPO's recipe (§IV-B) as both policies train under it: G rollouts
// per input (DefaultConfig's GroupSize, the sequence recipe's), inputs
// per step, the global gradient-norm bound (DefaultConfig's ClipNorm,
// the sequence recipe's). Each rollout samples at temperature 1 from
// the rng grid hands it. seqLR is the sequence recipe's learning rate,
// higher than DefaultConfig's because a sequence episode has far fewer
// decisions per gradient step.
const (
	groupSize   = 6
	batchInputs = 8
	clipNorm    = 5
	seqLR       = 40
)

// DefaultConfig returns the settings used by the reproduction's
// training runs.
func DefaultConfig() Config {
	return Config{GroupSize: groupSize, LR: 30, ClipNorm: clipNorm}
}

// trainVerify bounds each verification query of a training run, for
// both policies.
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

// Trainer runs GRPO over a policy and corpus: the token policy
// (NewTrainer) or the pass-sequence policy (NewSequenceTrainer). Its
// trajectory depends only on (policy, data, cfg, seed) — never on the
// worker count. The oracle gates every reward: an episode whose output
// is not proven equivalent to its input earns no verified credit,
// whatever the cost model claims.
type Trainer struct {
	// RewardHistory records the mean raw reward per step (Fig. 4).
	RewardHistory []float64

	// Failures accumulates Model Zero mistakes, the rollout cells whose
	// attempt did not verify, when CollectFailures is set.
	CollectFailures bool
	Failures        []*FailureSample

	cfg    Config
	data   []*dataset.Sample
	oracle oracle.Oracle
	seed   int64
	cursor int

	// lin is the scorer StepCtx updates, clamped to lim; diag is the
	// diagnostic head trained alongside it and rules the action names
	// the failure harvest reads (both nil for the sequence policy).
	lin   *policy.Linear
	lim   float64
	diag  *policy.DiagHead
	rules []*rewrite.Rule
	// rollouts prepares one input's group for grid: the function that
	// rolls out and scores one cell of it.
	rollouts func(ctx context.Context, s *dataset.Sample) func(*rand.Rand) episodeScore
}

// NewTrainer wires a trainer of the token policy m whose rewards o
// gates. Rollout sampling is driven by per-episode RNGs derived from
// seed, so the trajectory never depends on cfg.Workers.
func NewTrainer(o oracle.Oracle, m *policy.Model, data []*dataset.Sample, cfg Config, seed int64) *Trainer {
	tr := &Trainer{cfg: cfg, data: data, oracle: o, seed: seed, lin: &m.Linear, lim: m.Cap.MaxBias, diag: m.Diag, rules: m.Rules}
	tr.rollouts = func(ctx context.Context, s *dataset.Sample) func(*rand.Rand) episodeScore {
		l := labelOf(s, &tr.cfg)
		return func(rng *rand.Rand) episodeScore {
			ep := m.Generate(s.O0, policy.GenOptions{Rng: rng, Augmented: tr.cfg.Mode == ModeCorrectnessCoT})
			return score(ctx, tr.oracle, s, l, ep, &tr.cfg)
		}
	}
	return tr
}

// NewSequenceTrainer wires a trainer of the pass-sequence policy m
// (the phase-ordering workload) under the sequence recipe: DefaultConfig's
// group and clip, the learning rate seqLR and ModeLatency, with Eq. 4
// saturating at umax. A cell's episode is the sequence's rollout, and
// its one reward the verified latency gain of the sequence's final
// state (latencyScore); an empty sequence is trivially equivalent,
// with zero gain, and asks the oracle nothing.
func NewSequenceTrainer(o oracle.Oracle, m *seqopt.Model, data []*dataset.Sample, umax float64, workers int, seed int64) *Trainer {
	cfg := Config{GroupSize: groupSize, LR: seqLR, ClipNorm: clipNorm, Mode: ModeLatency, UMax: umax, Workers: workers}
	tr := &Trainer{cfg: cfg, data: data, oracle: o, seed: seed, lin: &m.Linear, lim: m.MaxBias}
	tr.rollouts = func(ctx context.Context, s *dataset.Sample) func(*rand.Rand) episodeScore {
		return func(rng *rand.Rand) episodeScore {
			ep := m.Generate(s.O0, rng)
			es := episodeScore{s: s, ep: policy.Episode{Rollout: ep.Rollout}}
			if len(ep.Sequence) > 0 {
				es.attempt = tr.oracle.Verify(ctx, s.O0, ep.FinalFn, trainVerify)
				es.r[answer] = latencyScore(s, es.attempt.Verdict, ep.FinalFn, tr.cfg.UMax)
			}
			return es
		}
	}
	return tr
}

// An episode's reward components, each with its own group-relative
// advantage (see credited): Eq. 1 of the answer, Eq. 1 of the first
// attempt and Eq. 2 of the diagnosis. Its reward is r[answer] + r[think].
const (
	answer = iota
	attempt
	think
	components
)

// episodeScore is one rollout cell: the sample, the episode (by value:
// a sequence cell wraps its rollout without allocating), the attempt's
// verdict (for Model Zero's failure harvest) and each component's reward.
type episodeScore struct {
	s       *dataset.Sample
	ep      policy.Episode
	attempt alive.Result
	r       [components]float64
}

// credited is the credit rule, the rollout each component pays: with
// no diagnosis (the generic prompt, a sequence) the attempt is the
// answer; with one, the answer pays the correction (empty when none
// ran) and the attempt its own rollout, so a corrupt-then-correct
// episode does not reinforce corrupting. think pays the diagnosis.
func (es *episodeScore) credited() [think]policy.Rollout {
	if es.ep.Diag == nil {
		return [think]policy.Rollout{answer: es.ep.Rollout}
	}
	return [think]policy.Rollout{answer: es.ep.Correction, attempt: es.ep.Rollout}
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
	cfg := &tr.cfg
	cells, err := grid(ctx, tr, batchInputs, cfg.GroupSize, cfg.Workers, tr.rollouts)
	if cells == nil {
		return 0, err
	}

	// Everything below is sequential and walks the grid in its
	// deterministic (batch, group) order: failure harvesting, the mean
	// reward, and gradient accumulation. A component's advantages are
	// computed at its first non-zero reward; one with none is skipped,
	// bit for bit (its advantages and the accumulators are all +0).
	totalTokens := 0
	meanReward := 0.0
	var adv [components][]float64
	for i := range cells {
		es := &cells[i]
		if tr.CollectFailures && es.attempt.Verdict != alive.Equivalent {
			tr.Failures = append(tr.Failures, &FailureSample{
				Sample:    es.s,
				TrueDiag:  es.attempt.Diag,
				TrueClass: classOf(es.attempt.Verdict),
				UsedRules: usedRules(tr.rules, &es.ep),
			})
		}
		totalTokens += tokensOf(&es.ep)
		meanReward += es.r[answer] + es.r[think]
		for c, r := range es.r {
			if r != 0 && adv[c] == nil {
				adv[c] = advantages(cells, cfg.GroupSize, cfg.NoGroupBaseline, func(e *episodeScore) float64 { return e.r[c] })
			}
		}
	}
	tr.RewardHistory = append(tr.RewardHistory, meanReward/float64(len(cells)))

	// The policy gradient: each component's advantage, normalized per
	// token over the batch (or per sequence, for the ablation), times
	// ∇ log π of what it pays, added correction, attempt, diagnosis.
	// The diagnostic head has a gradient only in a step where think
	// pays; in any other it is still clamped.
	g := tr.lin.Grad()
	var dense, gDense [][]float64
	if tr.diag != nil {
		dense = tr.diag.W
	}
	if dense != nil && adv[think] != nil {
		gDense = make([][]float64, len(dense))
		for c := range gDense {
			gDense[c] = make([]float64, len(dense[c]))
		}
	}
	for i := range cells {
		es := &cells[i]
		norm := float64(totalTokens)
		if cfg.SeqLevelNorm {
			norm = float64(tokensOf(&es.ep)) * float64(len(cells))
		}
		for c, a := range adv {
			switch d := es.ep.Diag; {
			case a == nil:
			case c != think:
				tr.lin.AddGrad(g, es.credited()[c], a[i]/norm)
			case d != nil:
				tr.diag.AddGrad(gDense, d.Features, int(d.PredictedClass), a[i]/norm)
			}
		}
	}
	return tr.lin.ClipStep(g, dense, gDense, cfg.LR, cfg.ClipNorm, tr.lim), nil
}

func tokensOf(ep *policy.Episode) int {
	n := len(ep.Actions) + len(ep.Correction.Actions)
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

func usedRules(rules []*rewrite.Rule, ep *policy.Episode) []string {
	var out []string
	for _, rec := range ep.Actions {
		a := rec.Cands[rec.Chosen]
		if a < len(rules) {
			out = append(out, rules[a].Name)
		}
	}
	return out
}

// TrainCtx runs up to n steps under ctx. On cancellation the aborted
// step leaves no trace (see grid) and the context's error is returned.
func (tr *Trainer) TrainCtx(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if _, err := tr.StepCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}
