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
	// groupSize is G, rollouts per input (relative advantages).
	groupSize int
	// batchInputs is the number of inputs per optimization step.
	batchInputs int
	// lr is the gradient-ascent learning rate.
	lr float64
	// clipNorm bounds the global gradient norm.
	clipNorm float64
	// temperature for rollout sampling.
	temperature float64
	// Latency holds the Eq. 3–4 shaping parameters.
	Latency LatencyRewardParams
	// verify bounds each verification query during training.
	verify alive.Options
	// Workers bounds the rollout + verification fan-out (<= 0 selects
	// runtime.NumCPU()). Results are bit-identical at any worker count.
	Workers int
}

// DefaultSeqConfig returns the settings used by the passes workload's
// training runs. The LR is higher than the text trainer's because a
// sequence episode has far fewer decisions per gradient step.
func DefaultSeqConfig() SeqConfig {
	return SeqConfig{
		groupSize:   6,
		batchInputs: 8,
		lr:          40,
		clipNorm:    5,
		temperature: 1.0,
		verify:      alive.Options{MaxPaths: 256, MaxSteps: 2048, SolverBudget: 40000},
	}
}

// SeqStepStats summarizes one sequence-trainer step.
type SeqStepStats struct {
	// meanReward is the mean verified-latency reward across the grid.
	meanReward float64
	// verifiedFrac is the fraction of episodes whose final state the
	// oracle proved equivalent (empty sequences count: the input
	// trivially refines itself).
	verifiedFrac float64
	// improvedFrac is the fraction of episodes with a verified strict
	// latency win.
	improvedFrac float64
	// meanLen is the mean applied-sequence length.
	meanLen  float64
	gradNorm float64
	episodes int
}

// SeqTrainer runs GRPO over a sequence policy and corpus. The reward
// is gated by the oracle exactly as in the text workload: an episode
// whose final state is not proven equivalent to its input earns zero,
// whatever the cost model claims. It runs on the same rollout core
// (rollout.go) and the same policy.Linear update as Trainer.
type SeqTrainer struct {
	model *seqopt.Model
	cfg   SeqConfig
	rollout
}

// NewSeqTrainer wires a sequence trainer. As with NewTrainer, the
// training trajectory depends only on (model, data, cfg, seed) —
// never on Cfg.Workers.
func NewSeqTrainer(m *seqopt.Model, data []*dataset.Sample, cfg SeqConfig, seed int64) *SeqTrainer {
	return &SeqTrainer{model: m, cfg: cfg, rollout: rollout{Data: data, seed: seed}}
}

// seqScore pairs an episode with its reward.
type seqScore struct {
	ep       *seqopt.Episode
	r        float64
	verified bool
	improved bool
}

// stepCtx performs one GRPO update over a BatchInputs × GroupSize
// grid of sequence rollouts; determinism and cancellation are grid's.
func (tr *SeqTrainer) stepCtx(ctx context.Context) (SeqStepStats, error) {
	m := tr.model
	cfg := tr.cfg
	cells, err := grid(ctx, &tr.rollout, cfg.batchInputs, cfg.groupSize, cfg.Workers,
		func(o oracle.Oracle, s *dataset.Sample, rng *rand.Rand) seqScore {
			ep := m.Generate(s.O0, seqopt.GenOptions{
				Temperature: cfg.temperature,
				Rng:         rng,
			})
			es := seqScore{ep: ep}
			if len(ep.Sequence) == 0 {
				// No transformation: trivially equivalent, zero gain.
				es.verified = true
			} else if vr := o.Verify(ctx, s.O0, ep.FinalFn, cfg.verify); vr.Verdict == alive.Equivalent {
				es.verified = true
				u := costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(ep.FinalFn))
				es.improved = u > 1
				// Reuse the Eq. 3–4 latency shaping via a synthetic
				// judgment: verified final state with speedup u.
				es.r = latencyReward(&Judgment{FinalVerdict: vr, speedup: u}, cfg.Latency)
			}
			return es
		})
	if cells == nil {
		return SeqStepStats{}, err
	}

	// Sequential, grid-ordered: stats, advantages (token-normalized
	// over the whole batch) and gradient accumulation.
	stats := SeqStepStats{episodes: len(cells)}
	totalTokens := 0
	for _, es := range cells {
		totalTokens += len(es.ep.Actions)
		stats.meanReward += es.r
		stats.meanLen += float64(len(es.ep.Sequence))
		if es.verified {
			stats.verifiedFrac++
		}
		if es.improved {
			stats.improvedFrac++
		}
	}
	stats.meanReward /= float64(stats.episodes)
	stats.meanLen /= float64(stats.episodes)
	stats.verifiedFrac /= float64(stats.episodes)
	stats.improvedFrac /= float64(stats.episodes)
	tr.RewardHistory = append(tr.RewardHistory, stats.meanReward)

	g := m.Grad()
	for i, adv := range advantages(cells, cfg.groupSize, false, func(e *seqScore) float64 { return e.r }) {
		for _, rec := range cells[i].ep.Actions {
			m.AddGrad(g, rec, cells[i].ep.H, cfg.temperature, adv/float64(totalTokens))
		}
	}
	stats.gradNorm = m.ClipStep(g, nil, nil, cfg.lr, cfg.clipNorm, m.MaxBias)
	return stats, nil
}

// TrainCtx runs up to n steps under ctx; cancellation semantics match
// Trainer.TrainCtx.
func (tr *SeqTrainer) TrainCtx(ctx context.Context, n int) ([]SeqStepStats, error) {
	return train(ctx, n, tr.stepCtx)
}
