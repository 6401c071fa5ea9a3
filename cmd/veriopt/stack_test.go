package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"veriopt/internal/oracle"
)

// captureStderr runs f with os.Stderr sent to a file and returns what
// was written.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stderr
	os.Stderr = out
	defer func() { os.Stderr = saved }()
	f()
	blob, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestStoreSeesEveryQuery: with -store-dir, train and experiments
// verify through a stack built over the store. The shared default
// stack answers no query, and every verdict the run's stack computed
// (a vcache miss) is appended to the store: a path that fell back to
// oracle.Default() would leave its verdicts out of the store.
func TestStoreSeesEveryQuery(t *testing.T) {
	for _, run := range []struct {
		name string
		cmd  func(context.Context, []string) error
		args []string
	}{
		{"train", cmdTrain, nil},
		{"experiments", cmdExperiments, []string{"-run", "table1"}},
	} {
		t.Run(run.name, func(t *testing.T) {
			args := append(run.args, "-n", "30", "-stage1", "1", "-stage2", "1", "-stage3", "1",
				"-workers", "1", "-store-dir", filepath.Join(t.TempDir(), "store"))
			before := oracle.Default().Engine.Stats().Queries
			stderr := captureStderr(t, func() {
				if err := run.cmd(context.Background(), args); err != nil {
					t.Fatal(err)
				}
			})
			if q := oracle.Default().Engine.Stats().Queries - before; q != 0 {
				t.Errorf("the default stack answered %d queries", q)
			}
			var queries, hits, misses, entries, segments, liveBytes, appends uint64
			var hitPct float64
			for _, line := range strings.Split(stderr, "\n") {
				switch {
				case strings.HasPrefix(line, "[vcache: "):
					fmt.Sscanf(line, "[vcache: %d queries, %d hits (%f%%), %d misses", &queries, &hits, &hitPct, &misses)
				case strings.HasPrefix(line, "[vstore: "):
					fmt.Sscanf(line, "[vstore: %d entries in %d segments (%d live bytes), %d appends", &entries, &segments, &liveBytes, &appends)
				}
			}
			if misses == 0 || appends != misses || entries != misses {
				t.Errorf("%d vcache misses in %d queries, %d store appends, %d entries: want misses = appends = entries > 0\n%s",
					misses, queries, appends, entries, stderr)
			}
		})
	}
}

// TestServeWithoutStoreVerifies: serve with no -store-dir answers a
// verify. The stack it builds must not carry a nil *vstore.Store as its
// Backing (a non-nil interface), which would panic on the first miss.
func TestServeWithoutStoreVerifies(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cmdServe(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-trace", trace}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	listening := regexp.MustCompile(`"note":"serve ([0-9.:]+)"`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		blob, _ := os.ReadFile(trace)
		if m := listening.FindSubmatch(blob); m != nil {
			addr = string(m[1])
		}
	}
	if addr == "" {
		t.Fatal("serve did not start listening")
	}
	const fn = "define i32 @f(i32 noundef %x) {\n  %y = add i32 %x, 0\n  ret i32 %y\n}"
	body, _ := json.Marshal(map[string]string{"src": fn, "tgt": "define i32 @f(i32 noundef %x) {\n  ret i32 %x\n}"})
	resp, err := http.Post("http://"+addr+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ Verdict string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Verdict != "equivalent" {
		t.Errorf("status %d, verdict %q, decode error %v", resp.StatusCode, out.Verdict, err)
	}
}
