package vstore

import (
	"context"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/vcache"
)

// TestOwedVerdictReachesTheStoreAtEviction: a hot-tier entry whose
// write-through failed owes the store a write, and pays it when it is
// evicted. Over a real Store under a one-entry hot tier: after a short
// write that was cut back, the demote lands and the verdict survives
// reopen; with a store that refuses appends (a short write that could
// not be cut), the failed demote is counted and the verdict is
// recomputed on its next query, never answered from a torn record.
func TestOwedVerdictReachesTheStoreAtEviction(t *testing.T) {
	compute := func(i int, ran *int) func() alive.Result {
		return func() alive.Result { *ran++; return tres(i) }
	}

	t.Run("cut back", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		e := vcache.New(vcache.Config{MaxEntries: 1, Backing: s})
		disk := fillDisk(s, 11, false)
		ran := 0
		sameResult(t, do(e, tkey(0), compute(0, &ran)), tres(0))
		if st := e.Stats(); st.StoreErrors != 1 {
			t.Fatalf("write-through on a full disk: %+v, want one store error", st)
		}
		if _, ok, err := s.Get(tkey(0)); ok || err != nil {
			t.Fatalf("failed write-through: Get = %v, %v; want a miss", ok, err)
		}
		// The disk has room again; the next verdict evicts the owed one.
		disk.room = 1 << 30
		sameResult(t, do(e, tkey(1), compute(1, &ran)), tres(1))
		if st := e.Stats(); st.Evictions != 1 || st.Demotions != 1 || st.StoreErrors != 1 {
			t.Fatalf("after the eviction: %+v, want one demotion and still one store error", st)
		}
		sameResult(t, mustGet(t, s, tkey(0)), tres(0))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for i := 0; i < 2; i++ {
			sameResult(t, mustGet(t, s2, tkey(i)), tres(i))
		}
		// A fresh hot tier over the reopened store answers both from
		// disk.
		e2 := vcache.New(vcache.Config{MaxEntries: 1, Backing: s2})
		for i := 0; i < 2; i++ {
			sameResult(t, do(e2, tkey(i), compute(i, &ran)), tres(i))
		}
		if ran != 2 {
			t.Fatalf("%d computations, want 2: a demoted verdict was recomputed after reopen", ran)
		}
	})

	t.Run("refused", func(t *testing.T) {
		s, err := Open(t.TempDir(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		e := vcache.New(vcache.Config{MaxEntries: 1, Backing: s})
		fillDisk(s, 11, true)
		ran := 0
		sameResult(t, do(e, tkey(0), compute(0, &ran)), tres(0))
		// Key 1's write-through is refused, and so is key 0's demote.
		sameResult(t, do(e, tkey(1), compute(1, &ran)), tres(1))
		if st := e.Stats(); st.StoreErrors != 3 || st.Demotions != 1 {
			t.Fatalf("stats %+v, want 3 store errors (two write-throughs, one demote) and one demotion", st)
		}
		if _, ok, err := s.Get(tkey(0)); ok || err != nil {
			t.Fatalf("refused demote: Get = %v, %v; want a miss", ok, err)
		}
		sameResult(t, do(e, tkey(0), compute(0, &ran)), tres(0))
		if ran != 3 {
			t.Fatalf("%d computations, want 3: the evicted verdict was answered without being recomputed", ran)
		}
	})
}

// do asks e for k's verdict, as a caller holding k's texts does.
func do(e *vcache.Engine, k vcache.Key, compute func() alive.Result) alive.Result {
	return e.Do(context.Background(), []byte(k.Src), []byte(k.Dst), k.Opts, compute)
}
