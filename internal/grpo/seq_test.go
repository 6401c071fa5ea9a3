package grpo

import (
	"context"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/seqopt"
)

func seqCorpus(t *testing.T, n int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 17, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestSequenceTrainerLearns: training must raise the mean verified-latency
// reward above the untrained policy's and keep every reward gated on
// verification (every sequence the oracle is asked about proves
// Equivalent: all registry passes are sound).
func TestSequenceTrainerLearns(t *testing.T) {
	data := seqCorpus(t, 40)
	m := seqopt.NewModel(3)
	var asked, unproved atomic.Int64
	counting := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		r := testStack.Verify(ctx, src, tgt, opts)
		asked.Add(1)
		if r.Verdict != alive.Equivalent {
			unproved.Add(1)
		}
		return r
	})
	tr := NewSequenceTrainer(counting, m, data, 0, 0, 11)
	trainBg(tr.TrainCtx, 30)
	if len(tr.RewardHistory) != 30 {
		t.Fatalf("reward history has %d entries, want 30", len(tr.RewardHistory))
	}
	if asked.Load() == 0 || unproved.Load() != 0 {
		t.Errorf("%d of %d sequences the oracle was asked about did not prove Equivalent, want 0 (sound registry)",
			unproved.Load(), asked.Load())
	}
	early := avg(tr.RewardHistory[:5])
	late := avg(tr.RewardHistory[len(tr.RewardHistory)-5:])
	if late <= early {
		t.Errorf("reward did not improve: first-5 mean %.4f, last-5 mean %.4f", early, late)
	}
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
