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
// Its group and batch shape, clip norm and verifier limits are the
// text trainer's defaults: groupSize, batchInputs, clipNorm and
// trainVerify; it samples at temperature 1 as the text trainer does.
// Its learning rate is seqLR.
type SeqConfig struct {
	// UMax is Eq. 4's saturation threshold, as Config.UMax.
	UMax float64
	// Workers bounds the rollout + verification fan-out (<= 0 selects
	// runtime.NumCPU()). Results are bit-identical at any worker count.
	Workers int
}

// seqLR is the sequence trainer's gradient-ascent learning rate. It is
// higher than the text trainer's because a sequence episode has far
// fewer decisions per gradient step.
const seqLR = 40

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

// NewSeqTrainer wires a sequence trainer whose rewards o gates. As
// with NewTrainer, the training trajectory depends only on (model,
// data, cfg, seed) — never on Cfg.Workers.
func NewSeqTrainer(o oracle.Oracle, m *seqopt.Model, data []*dataset.Sample, cfg SeqConfig, seed int64) *SeqTrainer {
	return &SeqTrainer{model: m, cfg: cfg, rollout: rollout{Data: data, oracle: o, seed: seed}}
}

// seqScore pairs an episode with its reward.
type seqScore struct {
	ep *seqopt.Episode
	r  float64
}

// stepCtx is step at the learning rate seqLR.
func (tr *SeqTrainer) stepCtx(ctx context.Context) (float64, error) { return tr.step(ctx, seqLR) }

// step performs one GRPO update at the learning rate lr over a
// batchInputs × groupSize grid of sequence rollouts and returns its
// pre-clip gradient norm; the step's mean reward is appended to
// RewardHistory. Determinism and cancellation are grid's.
func (tr *SeqTrainer) step(ctx context.Context, lr float64) (float64, error) {
	m := tr.model
	cfg := tr.cfg
	cells, err := grid(ctx, &tr.rollout, batchInputs, groupSize, cfg.Workers,
		func(s *dataset.Sample) func(*rand.Rand) seqScore {
			return func(rng *rand.Rand) seqScore {
				ep := m.Generate(s.O0, rng)
				// No transformation is trivially equivalent, with zero gain.
				es := seqScore{ep: ep}
				if len(ep.Sequence) > 0 {
					vr := tr.oracle.Verify(ctx, s.O0, ep.FinalFn, trainVerify)
					u := 0.0
					if vr.Verdict == alive.Equivalent {
						u = costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(ep.FinalFn))
					}
					es.r = latencyReward(vr.Verdict, u, cfg.UMax)
				}
				return es
			}
		})
	if cells == nil {
		return 0, err
	}

	// Sequential, grid-ordered: the mean reward, advantages
	// (token-normalized over the whole batch) and gradient accumulation.
	totalTokens := 0
	meanReward := 0.0
	for _, es := range cells {
		totalTokens += len(es.ep.Actions)
		meanReward += es.r
	}
	tr.RewardHistory = append(tr.RewardHistory, meanReward/float64(len(cells)))

	g := m.Grad()
	for i, adv := range advantages(cells, groupSize, false, func(e *seqScore) float64 { return e.r }) {
		for _, rec := range cells[i].ep.Actions {
			m.AddGrad(g, rec, cells[i].ep.H, adv/float64(totalTokens))
		}
	}
	return m.ClipStep(g, nil, nil, lr, clipNorm, m.MaxBias), nil
}

// TrainCtx runs up to n steps under ctx; cancellation semantics match
// Trainer.TrainCtx.
func (tr *SeqTrainer) TrainCtx(ctx context.Context, n int) error {
	return train(ctx, n, tr.stepCtx)
}
