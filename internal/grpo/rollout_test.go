package grpo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"veriopt/internal/dataset"
)

// TestAdvantagesAreGroupRelative: within each group of consecutive
// cells the advantages have zero mean and (near) unit deviation, a
// constant group gets all zeros, and raw mode returns the rewards.
func TestAdvantagesAreGroupRelative(t *testing.T) {
	cells := []float64{1, 2, 3, 5, 5, 5}
	id := func(v *float64) float64 { return *v }
	adv := advantages(cells, 3, false, id)
	if m := adv[0] + adv[1] + adv[2]; math.Abs(m) > 1e-12 || adv[0] >= adv[1] || adv[1] >= adv[2] {
		t.Errorf("group 0 advantages %v", adv[:3])
	}
	if sd := math.Sqrt((adv[0]*adv[0] + adv[1]*adv[1] + adv[2]*adv[2]) / 3); math.Abs(sd-1) > 1e-5 {
		t.Errorf("group 0 deviation %v, want 1", sd)
	}
	if adv[3] != 0 || adv[4] != 0 || adv[5] != 0 {
		t.Errorf("constant group advantages %v, want zeros", adv[3:])
	}
	for i, v := range advantages(cells, 3, true, id) {
		if v != cells[i] {
			t.Errorf("raw advantage %d = %v, want the reward %v", i, v, cells[i])
		}
	}
}

// TestGridAssignsCellsByCursor: cell (bi, gi) sees sample
// (cursor+bi) mod len(data) and an RNG that depends on its position
// and the seed only; the cursor advances by the batch; a canceled
// context rolls out nothing and leaves the cursor alone.
func TestGridAssignsCellsByCursor(t *testing.T) {
	data := corpus(t, 3)
	type cell struct {
		name string
		draw int64
	}
	run := func(r *Trainer, workers int) []cell {
		cells, err := grid(context.Background(), r, 2, 3, workers,
			func(_ context.Context, s *dataset.Sample) func(*rand.Rand) cell {
				return func(rng *rand.Rand) cell { return cell{s.Name, rng.Int63()} }
			})
		if err != nil || len(cells) != 6 {
			t.Fatalf("grid: %d cells, err %v", len(cells), err)
		}
		return cells
	}
	r := &Trainer{data: data, seed: 7, cursor: 2}
	cells := run(r, 1)
	if r.cursor != 4 {
		t.Errorf("cursor = %d after a batch of 2 from 2", r.cursor)
	}
	for i, c := range cells {
		if want := data[(2+i/3)%3].Name; c.name != want {
			t.Errorf("cell %d rolled out %s, want %s", i, c.name, want)
		}
		if want := rand.New(rand.NewSource(episodeSeed(7, 2+i/3, i%3))).Int63(); c.draw != want {
			t.Errorf("cell %d drew %d, want %d", i, c.draw, want)
		}
	}
	for i, c := range run(&Trainer{data: data, seed: 7, cursor: 2}, 4) {
		if c != cells[i] {
			t.Errorf("cell %d differs at Workers=4: %v vs %v", i, c, cells[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := grid(ctx, r, 2, 3, 1, func(context.Context, *dataset.Sample) func(*rand.Rand) cell {
		t.Error("canceled grid prepared an input")
		return nil
	})
	if got != nil || err == nil || r.cursor != 4 || len(r.RewardHistory) != 0 {
		t.Errorf("canceled grid: cells %v err %v cursor %d history %v", got, err, r.cursor, r.RewardHistory)
	}
}
