package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrainPassesRejectsCheckpointFlags: the passes workload has no
// checkpoints, so `train -workload passes` used to accept -checkpoint
// and -resume, print its table, write no checkpoint and
// "resume" one that did not exist. The combination is now a usage
// error naming the flags, raised before anything is created or
// trained: the context is already canceled, so any training the call
// reached would surface as context.Canceled instead. The last row is
// the peephole workload's -resume without -checkpoint, which used to
// retrain from scratch and write no checkpoint.
func TestTrainPassesRejectsCheckpointFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		workload string
		extra    []string
	}{
		{"passes", []string{"-checkpoint", "CKPT"}},
		{"passes", []string{"-checkpoint", "CKPT", "-resume"}},
		{"passes", []string{"-resume"}},
		{"peephole", []string{"-resume"}},
	} {
		extra := tc.extra
		dir := t.TempDir()
		ckptDir := filepath.Join(dir, "ck")
		args := []string{"-workload", tc.workload, "-n", "40", "-seq-steps", "2",
			"-trace", filepath.Join(dir, "trace.jsonl"), "-store-dir", filepath.Join(dir, "store")}
		for _, a := range extra {
			if a == "CKPT" {
				a = ckptDir
			}
			args = append(args, a)
		}
		err := cmdTrain(ctx, args)
		if err == nil {
			t.Fatalf("%v: accepted", extra)
		}
		for _, a := range extra {
			if strings.HasPrefix(a, "-") && !strings.Contains(err.Error(), a) {
				t.Errorf("%v: error %q does not name %s", extra, err, a)
			}
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%v: created %v before failing", extra, left)
		}
	}
}
