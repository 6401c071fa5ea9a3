package grpo

import (
	"bytes"
	"encoding/json"
	"testing"

	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// modelBytes is the byte-compare currency of the resume contract.
func modelBytes(t *testing.T, m *policy.Model) []byte {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSnapshotRestoreBitIdentical is the trainer half of the durable
// runs contract: training S steps, snapshotting, restoring into a
// fresh trainer, and training the remaining steps must produce the
// exact model bytes of an uninterrupted run.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	samples := corpus(t, 16)
	mkTrainer := func() *Trainer {
		m := policy.New(policy.CapQwen3B, 7)
		cfg := DefaultConfig()
		cfg.Workers = 2
		tr := NewTrainer(m, samples, cfg, 21)
		tr.Oracle = oracle.NewStack(oracle.Config{})
		tr.CollectFailures = true
		return tr
	}

	straight := mkTrainer()
	trainBg(straight.TrainCtx, 6)

	first := mkTrainer()
	trainBg(first.TrainCtx, 3)
	st, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.StepsDone != 3 || st.Cursor != first.cursor || st.Seed != first.seed {
		t.Fatalf("snapshot bookkeeping wrong: %+v", st)
	}
	// Round-trip through JSON like a real checkpoint file would.
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 TrainerState
	if err := json.Unmarshal(blob, &st2); err != nil {
		t.Fatal(err)
	}

	resumed := mkTrainer()
	if err := resumed.Restore(&st2); err != nil {
		t.Fatal(err)
	}
	trainBg(resumed.TrainCtx, 3)

	if !bytes.Equal(modelBytes(t, straight.Model), modelBytes(t, resumed.Model)) {
		t.Fatal("resumed model bytes differ from uninterrupted run")
	}
	if len(straight.RewardHistory) != len(resumed.RewardHistory) {
		t.Fatalf("history lengths differ: %d vs %d", len(straight.RewardHistory), len(resumed.RewardHistory))
	}
	for i := range straight.RewardHistory {
		if straight.RewardHistory[i] != resumed.RewardHistory[i] {
			t.Fatalf("step %d reward differs: %v vs %v", i, straight.RewardHistory[i], resumed.RewardHistory[i])
		}
	}
	if len(straight.Failures) != len(resumed.Failures) {
		t.Fatalf("failure harvest differs: %d vs %d", len(straight.Failures), len(resumed.Failures))
	}
	for i := range straight.Failures {
		a, b := straight.Failures[i], resumed.Failures[i]
		if a.Sample.Name != b.Sample.Name || a.AttemptText != b.AttemptText ||
			a.TrueDiag != b.TrueDiag || a.TrueClass != b.TrueClass {
			t.Fatalf("failure %d differs after resume", i)
		}
	}
}

func TestRestoreRejectsUnknownFailureSample(t *testing.T) {
	samples := corpus(t, 4)
	tr := NewTrainer(policy.New(policy.CapQwen3B, 7), samples, DefaultConfig(), 21)
	st := &TrainerState{
		Model:    modelBytes(t, tr.Model),
		Failures: []FailureState{{Sample: "no-such-sample"}},
	}
	if err := tr.Restore(st); err == nil {
		t.Fatal("restore accepted a failure referencing an unknown sample")
	}
}
