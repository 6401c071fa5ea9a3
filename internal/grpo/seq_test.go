package grpo

import (
	"context"
	"testing"

	"veriopt/internal/dataset"
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
// verification (VerifiedFrac stays 1: all registry passes are sound,
// so every rollout's final state must verify).
func TestSeqTrainerLearns(t *testing.T) {
	data := seqCorpus(t, 40)
	m := seqopt.NewModel(3)
	tr := NewSeqTrainer(m, data, DefaultSeqConfig(), 11)
	stats := trainBg(tr.TrainCtx, 30)
	if len(tr.RewardHistory) != 30 {
		t.Fatalf("reward history has %d entries, want 30", len(tr.RewardHistory))
	}
	for i, st := range stats {
		if st.episodes == 0 {
			t.Fatalf("step %d rolled out no episodes", i)
		}
		if st.verifiedFrac != 1 {
			t.Errorf("step %d: VerifiedFrac %.2f, want 1 (sound registry)", i, st.verifiedFrac)
		}
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
		cfg := DefaultSeqConfig()
		cfg.Workers = workers
		tr := NewSeqTrainer(seqopt.NewModel(5), data, cfg, 23)
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
	cfg := DefaultSeqConfig()
	tr := NewSeqTrainer(seqopt.NewModel(9), data, cfg, 31)
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
	other := NewSeqTrainer(seqopt.NewModel(9), data, cfg, 31)
	st1, err := tr.stepCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := other.stepCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st1.meanReward != st2.meanReward || st1.gradNorm != st2.gradNorm {
		t.Fatal("resumed step diverged from the uncanceled trajectory")
	}
}

// TestSeqTrainerEmptyCorpus: the degenerate shapes that used to panic
// the text trainer stay safe here too.
func TestSeqTrainerEmptyCorpus(t *testing.T) {
	tr := NewSeqTrainer(seqopt.NewModel(1), nil, DefaultSeqConfig(), 1)
	st := stepBg(tr.stepCtx)
	if st.episodes != 0 {
		t.Fatal("empty corpus produced episodes")
	}
	if len(tr.RewardHistory) != 1 {
		t.Fatal("empty step must still record a history entry")
	}
}
