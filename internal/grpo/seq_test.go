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

// TestSeqTrainerLearns: training must raise the mean verified-latency
// reward above the untrained policy's and keep every reward gated on
// verification (every sequence the oracle is asked about proves
// Equivalent: all registry passes are sound).
func TestSeqTrainerLearns(t *testing.T) {
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
	tr := NewSeqTrainer(counting, m, data, SeqConfig{}, 11)
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

// TestSeqTrainerWorkerIndependence is the determinism pin for the
// sequence workload: the full training trajectory — every parameter
// and the per-step reward history — is bit-identical at Workers=1 and
// Workers=4. Run under -race by the tier-2 suite.
func TestSeqTrainerWorkerIndependence(t *testing.T) {
	data := seqCorpus(t, 24)
	run := func(workers int) *SeqTrainer {
		tr := NewSeqTrainer(testStack, seqopt.NewModel(5), data, SeqConfig{Workers: workers}, 23)
		trainBg(tr.TrainCtx, 8)
		return tr
	}
	a, b := run(1), run(4)
	for i := range a.RewardHistory {
		if a.RewardHistory[i] != b.RewardHistory[i] {
			t.Fatalf("step %d reward differs: %v vs %v", i, a.RewardHistory[i], b.RewardHistory[i])
		}
	}
	for i := range a.model.B {
		if a.model.B[i] != b.model.B[i] || a.model.S[i] != b.model.S[i] {
			t.Fatalf("parameter %d differs across worker counts", i)
		}
	}
}

// TestSeqTrainerCancellation: a canceled step applies no update and
// rewinds the cursor so a resumed run replays the same batch.
func TestSeqTrainerCancellation(t *testing.T) {
	data := seqCorpus(t, 12)
	tr := NewSeqTrainer(testStack, seqopt.NewModel(9), data, SeqConfig{}, 31)
	beforeB := append([]float64(nil), tr.model.B...)
	beforeS := append([]float64(nil), tr.model.S...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.stepCtx(ctx); err == nil {
		t.Fatal("canceled step returned nil error")
	}
	for i := range beforeB {
		if tr.model.B[i] != beforeB[i] || tr.model.S[i] != beforeS[i] {
			t.Fatal("canceled step mutated the model")
		}
	}
	if len(tr.RewardHistory) != 0 {
		t.Fatal("canceled step recorded a reward entry")
	}
	if tr.cursor != 0 {
		t.Fatalf("canceled step left cursor at %d", tr.cursor)
	}
	// A live resume now replays the same batch deterministically.
	other := NewSeqTrainer(testStack, seqopt.NewModel(9), data, SeqConfig{}, 31)
	norm1, err := tr.stepCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	norm2, err := other.stepCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.RewardHistory[0] != other.RewardHistory[0] || norm1 != norm2 {
		t.Fatal("resumed step diverged from the uncanceled trajectory")
	}
}

// TestSeqTrainerEmptyCorpus: the degenerate shapes that used to panic
// the text trainer stay safe here too.
func TestSeqTrainerEmptyCorpus(t *testing.T) {
	tr := NewSeqTrainer(testStack, seqopt.NewModel(1), nil, SeqConfig{}, 1)
	stepBg(tr.stepCtx)
	if len(tr.RewardHistory) != 1 || tr.RewardHistory[0] != 0 {
		t.Fatalf("history = %v, want one empty step's 0", tr.RewardHistory)
	}
	if tr.cursor != 0 {
		t.Fatalf("an empty step moved the cursor to %d", tr.cursor)
	}
}
