package main

import (
	"fmt"
	"os"

	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/vstore"
)

// openStoreDir attaches a durable verdict store (-store-dir) as the
// cold tier under the stack's cache. The returned store must be
// closed by the caller (closeStore) so the unsynced tail is flushed
// on exit — for serve, that is the graceful-drain sync. A missing
// directory is simply a fresh store.
func openStoreDir(stack *oracle.Stack, dir string, rec *obs.Recorder) (*vstore.Store, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := vstore.Open(dir, vstore.Config{})
	if err != nil {
		return nil, fmt.Errorf("open verdict store: %w", err)
	}
	stack.UseStore(st)
	s := st.Stats()
	fmt.Fprintf(os.Stderr, "verdict store: %d entries in %d segments at %s\n", s.Entries, s.Segments, dir)
	rec.Emit(obs.Event{Kind: "checkpoint", Note: fmt.Sprintf("store opened: %d entries, %d segments", s.Entries, s.Segments)})
	return st, nil
}

// closeStore syncs the store's tail and releases it, then reports the
// final storage stats — read after Close so the closing sync is
// counted, and printed here only (reportVerifierStats leaves the store
// line to it). Close failures are reported, not fatal: every synced
// verdict is already durable.
func closeStore(st *vstore.Store, rec *obs.Recorder) {
	if st == nil {
		return
	}
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "error: close verdict store:", err)
	}
	s := st.Stats()
	fmt.Fprintf(os.Stderr, "[%s]\n", s)
	rec.Emit(obs.Event{Kind: "checkpoint", Note: fmt.Sprintf("store closed: %d entries, %d segments", s.Entries, s.Segments)})
}
