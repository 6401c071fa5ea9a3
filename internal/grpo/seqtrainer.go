package grpo

import (
	"context"
	"math/rand"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/oracle"
	"veriopt/internal/seqopt"
)

// SeqConfig parameterizes GRPO over pass sequences (the phase-ordering
// workload). It is Config minus the text-workload concerns
// (reward modes, diagnosis, BLEU shaping): a sequence episode has
// exactly one reward, the verified latency gain of its final state.
type SeqConfig struct {
	// GroupSize is G, rollouts per input (relative advantages).
	GroupSize int
	// BatchInputs is the number of inputs per optimization step.
	BatchInputs int
	// LR is the gradient-ascent learning rate.
	LR float64
	// ClipNorm bounds the global gradient norm.
	ClipNorm float64
	// Temperature for rollout sampling.
	Temperature float64
	// Latency holds the Eq. 3–4 shaping parameters.
	Latency LatencyRewardParams
	// Verify bounds each verification query during training.
	Verify alive.Options
	// Workers bounds the rollout + verification fan-out (<= 0 selects
	// runtime.NumCPU()). Results are bit-identical at any worker count.
	Workers int
}

// DefaultSeqConfig returns the settings used by the passes workload's
// training runs. The LR is higher than the text trainer's because a
// sequence episode has far fewer decisions per gradient step.
func DefaultSeqConfig() SeqConfig {
	return SeqConfig{
		GroupSize:   6,
		BatchInputs: 8,
		LR:          40,
		ClipNorm:    5,
		Temperature: 1.0,
		Verify:      alive.Options{MaxPaths: 256, MaxSteps: 2048, SolverBudget: 40000},
	}
}

// SeqStepStats summarizes one sequence-trainer step.
type SeqStepStats struct {
	// MeanReward is the mean verified-latency reward across the grid.
	MeanReward float64
	// VerifiedFrac is the fraction of episodes whose final state the
	// oracle proved equivalent (empty sequences count: the input
	// trivially refines itself).
	VerifiedFrac float64
	// ImprovedFrac is the fraction of episodes with a verified strict
	// latency win.
	ImprovedFrac float64
	// MeanLen is the mean applied-sequence length.
	MeanLen  float64
	GradNorm float64
	Episodes int
}

// SeqTrainer runs GRPO over a sequence policy and corpus. The reward
// is gated by the oracle exactly as in the text workload: an episode
// whose final state is not proven equivalent to its input earns zero,
// whatever the cost model claims. It runs on the same rollout core
// (rollout.go) and the same policy.Linear update as Trainer.
type SeqTrainer struct {
	Model *seqopt.Model
	Cfg   SeqConfig
	rollout
}

// NewSeqTrainer wires a sequence trainer. As with NewTrainer, the
// training trajectory depends only on (model, data, cfg, seed) —
// never on Cfg.Workers.
func NewSeqTrainer(m *seqopt.Model, data []*dataset.Sample, cfg SeqConfig, seed int64) *SeqTrainer {
	return &SeqTrainer{Model: m, Cfg: cfg, rollout: rollout{Data: data, seed: seed}}
}

// seqScore pairs an episode with its reward.
type seqScore struct {
	ep       *seqopt.Episode
	r        float64
	verified bool
	improved bool
}

// StepCtx performs one GRPO update over a BatchInputs × GroupSize
// grid of sequence rollouts; determinism and cancellation are grid's.
func (tr *SeqTrainer) StepCtx(ctx context.Context) (SeqStepStats, error) {
	m := tr.Model
	cfg := tr.Cfg
	cells, err := grid(ctx, &tr.rollout, cfg.BatchInputs, cfg.GroupSize, cfg.Workers,
		func(o oracle.Oracle, s *dataset.Sample, rng *rand.Rand) seqScore {
			ep := m.Generate(s.O0, seqopt.GenOptions{
				Temperature: cfg.Temperature,
				Rng:         rng,
			})
			es := seqScore{ep: ep}
			if len(ep.Sequence) == 0 {
				// No transformation: trivially equivalent, zero gain.
				es.verified = true
			} else if vr := o.Verify(ctx, s.O0, ep.FinalFn, cfg.Verify); vr.Verdict == alive.Equivalent {
				es.verified = true
				u := costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(ep.FinalFn))
				es.improved = u > 1
				// Reuse the Eq. 3–4 latency shaping via a synthetic
				// judgment: verified final state with speedup u.
				es.r = latencyReward(&Judgment{FinalVerdict: vr, Speedup: u}, cfg.Latency)
			}
			return es
		})
	if cells == nil {
		return SeqStepStats{}, err
	}

	// Sequential, grid-ordered: stats, advantages (token-normalized
	// over the whole batch) and gradient accumulation.
	stats := SeqStepStats{Episodes: len(cells)}
	totalTokens := 0
	for _, es := range cells {
		totalTokens += len(es.ep.Actions)
		stats.MeanReward += es.r
		stats.MeanLen += float64(len(es.ep.Sequence))
		if es.verified {
			stats.VerifiedFrac++
		}
		if es.improved {
			stats.ImprovedFrac++
		}
	}
	stats.MeanReward /= float64(stats.Episodes)
	stats.MeanLen /= float64(stats.Episodes)
	stats.VerifiedFrac /= float64(stats.Episodes)
	stats.ImprovedFrac /= float64(stats.Episodes)
	tr.RewardHistory = append(tr.RewardHistory, stats.MeanReward)

	g := m.Grad()
	for i, adv := range advantages(cells, cfg.GroupSize, false, func(e *seqScore) float64 { return e.r }) {
		for _, rec := range cells[i].ep.Actions {
			m.AddGrad(g, rec, cells[i].ep.H, cfg.Temperature, adv/float64(totalTokens))
		}
	}
	stats.GradNorm = m.ClipStep(g, nil, nil, cfg.LR, cfg.ClipNorm, m.MaxBias)
	return stats, nil
}

// TrainCtx runs up to n steps under ctx; cancellation semantics match
// Trainer.TrainCtx.
func (tr *SeqTrainer) TrainCtx(ctx context.Context, n int) ([]SeqStepStats, error) {
	return train(ctx, n, tr.StepCtx)
}
