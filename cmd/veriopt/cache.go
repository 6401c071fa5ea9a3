package main

import (
	"fmt"
	"os"

	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/vstore"
)

// openStoreDir opens the durable verdict store behind -store-dir, or
// returns nil when dir is empty. The caller builds its stack over it
// (storeStack) and closes it (closeStore) so the unsynced tail is
// flushed on exit — for serve, that is the graceful-drain sync. A
// missing directory is simply a fresh store.
func openStoreDir(dir string, rec *obs.Recorder) (*vstore.Store, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := vstore.Open(dir, vstore.Config{})
	if err != nil {
		return nil, fmt.Errorf("open verdict store: %w", err)
	}
	s := st.Stats()
	fmt.Fprintf(os.Stderr, "verdict store: %d entries in %d segments at %s\n", s.Entries, s.Segments, dir)
	rec.Emit(obs.Event{Kind: "checkpoint", Note: fmt.Sprintf("store opened: %d entries, %d segments", s.Entries, s.Segments)})
	return st, nil
}

// storeStack is the stack a run verifies with: the shared default when
// it has neither a store nor a replica set, else a stack of its own
// with the store (if opened) as the cache's cold tier and the replica
// set (if any) as its remote. The store is set only when opened: a nil
// *vstore.Store in the Backing interface is not a nil Backing.
func storeStack(st *vstore.Store, remote oracle.Remote) *oracle.Stack {
	cfg := oracle.Config{Remote: remote}
	if st != nil {
		cfg.Backing = st
	}
	if cfg.Backing == nil && cfg.Remote == nil {
		return oracle.Default()
	}
	return oracle.NewStack(cfg)
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
