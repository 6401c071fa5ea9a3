package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// TestStoreStatsPrintedOnceAfterClose drives the exit path serve,
// train and experiments share — reportVerifierStats deferred before
// closeStore, so closeStore runs first — and requires exactly one
// [vstore: …] line on stderr, taken after Close so the closing sync is
// counted.
func TestStoreStatsPrintedOnceAfterClose(t *testing.T) {
	f, err := ir.ParseFunc("define i32 @f(i32 noundef %x) {\n  ret i32 %x\n}")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	blob := captureStderr(t, func() {
		st, err := openStoreDir(filepath.Join(t.TempDir(), "store"), nil)
		if err != nil {
			t.Fatal(err)
		}
		stack := storeStack(st, nil)
		if r := stack.Verify(context.Background(), f, f, alive.DefaultOptions()); r.Verdict != alive.Equivalent {
			t.Errorf("verdict %v", r.Verdict)
		}
		closeStore(st, nil)
		reportVerifierStats(stack)
		want = "[" + st.Stats().String() + "]"
	})
	var got []string
	for _, line := range strings.Split(blob, "\n") {
		if strings.HasPrefix(line, "[vstore:") {
			got = append(got, line)
		}
	}
	if len(got) != 1 || got[0] != want {
		t.Errorf("store stats lines %q, want exactly %q\nstderr:\n%s", got, want, blob)
	}
	if !strings.Contains(want, "1 appends") || strings.Contains(want, " 0 syncs") {
		t.Errorf("post-close stats %q do not count the verdict's append and the closing sync", want)
	}
}
