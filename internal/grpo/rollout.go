package grpo

import (
	"context"
	"math"
	"math/rand"

	"veriopt/internal/dataset"
	"veriopt/internal/par"
)

// grid rolls out one step's batch × group cells in parallel across
// workers goroutines. The cursor advances by the batch up front. Each
// input cursor+bi is first prepared once, in batch order, by input,
// which returns the function that rolls out its group; cell (bi, gi)
// calls that function with its own rand.Rand derived from the seed and
// that position, and writes only its own slot, so the result is
// independent of worker count and interleaving; callers then walk it
// sequentially in (batch, group) order.
//
// A nil grid means no step ran. When ctx ends — before or mid-rollout
// — in-flight verifications return Canceled verdicts, the partial grid
// is discarded and the cursor rewinds, so the trainer's next step
// replays the same batch: cancellation never perturbs the trajectory,
// it only truncates it. An empty corpus or degenerate grid shape (which used
// to divide by zero at the cursor modulus) records an empty step so
// RewardHistory keeps one entry per Step.
func grid[T any](ctx context.Context, tr *Trainer, batch, group, workers int,
	input func(ctx context.Context, s *dataset.Sample) func(rng *rand.Rand) T) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(tr.data) == 0 || batch <= 0 || group <= 0 {
		tr.RewardHistory = append(tr.RewardHistory, 0)
		return nil, nil
	}
	base := tr.cursor
	tr.cursor += batch
	rollouts := make([]func(*rand.Rand) T, batch)
	for bi := range rollouts {
		rollouts[bi] = input(ctx, tr.data[(base+bi)%len(tr.data)])
	}
	cells := make([]T, batch*group)
	err := par.For(ctx, workers, len(cells), func(i int) {
		bi, gi := i/group, i%group
		cells[i] = rollouts[bi](rand.New(rand.NewSource(episodeSeed(tr.seed, base+bi, gi))))
	})
	if err != nil {
		tr.cursor = base
		return nil, err
	}
	return cells, nil
}

// episodeSeed mixes the trainer seed with the episode's corpus cursor
// and group index (splitmix64-style finalizer) so per-episode RNG
// streams are decorrelated from each other and independent of worker
// scheduling.
func episodeSeed(seed int64, cursor, gi int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(cursor)*0xbf58476d1ce4e5b9 + uint64(gi+1)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// advantages returns, for every cell of a grid, its group-relative
// advantage (r − mean)/(std + 1e-6) on the reward component r, with
// mean and std taken over the cell's group of `group` consecutive
// cells. raw returns the rewards themselves (plain REINFORCE).
func advantages[T any](cells []T, group int, raw bool, r func(*T) float64) []float64 {
	adv := make([]float64, len(cells))
	for i := range cells {
		adv[i] = r(&cells[i])
	}
	for g := 0; !raw && g < len(adv); g += group {
		rs := adv[g : g+group]
		mean, std := 0.0, 0.0
		for _, v := range rs {
			mean += v
		}
		mean /= float64(group)
		for _, v := range rs {
			std += (v - mean) * (v - mean)
		}
		std = math.Sqrt(std / float64(group))
		for i, v := range rs {
			rs[i] = (v - mean) / (std + 1e-6)
		}
	}
	return adv
}
