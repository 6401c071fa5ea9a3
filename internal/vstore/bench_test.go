package vstore

import (
	"fmt"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/vcache"
)

// Store life cycle at a few thousand records: append, read hits and
// misses, supersede half, reopen. The walls are logged, not
// asserted — tier-1 must not fail on a loaded machine; what is asserted
// is that every read answers as it should and that the reopened store
// holds every appended record.

// benchKey builds a key shaped like real traffic: function-sized texts
// (a few hundred bytes), unique per i.
func benchKey(i int) vcache.Key {
	src := fmt.Sprintf(`define i32 @f_%d(i32 noundef %%0) {
  %%2 = add i32 %%0, %d
  %%3 = mul i32 %%2, 3
  %%4 = sub i32 %%3, %d
  %%5 = xor i32 %%4, 255
  ret i32 %%5
}`, i, i, 2*i)
	tgt := fmt.Sprintf(`define i32 @f_%d(i32 noundef %%0) {
  %%2 = mul i32 %%0, 3
  %%3 = add i32 %%2, %d
  %%4 = xor i32 %%3, 255
  ret i32 %%4
}`, i, i)
	return vcache.Key{Src: src, Dst: tgt, Opts: alive.DefaultOptions()}
}

func benchRes(i int) alive.Result {
	return alive.Result{Verdict: alive.Equivalent, SolverConflicts: i % 977}
}

func TestStoreBench(t *testing.T) {
	const n = 2_000
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Append phase: n unique verdicts.
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Put(benchKey(i), benchRes(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.sync(); err != nil {
		t.Fatal(err)
	}
	appendWall := time.Since(t0)
	bytesAppended := s.Stats().appendedBytes

	// Read phases: hits over the live set, misses over absent keys.
	const reads = 10_000
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		if _, ok, err := s.Get(benchKey(i % n)); err != nil || !ok {
			t.Fatalf("read hit %d: ok=%v err=%v", i, ok, err)
		}
	}
	hitWall := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		if _, ok, err := s.Get(benchKey(n + i)); err != nil || ok {
			t.Fatalf("read miss %d: ok=%v err=%v", i, ok, err)
		}
	}
	missWall := time.Since(t0)

	// Supersede half the records: the old ones stay on disk and replay
	// must prefer the new.
	for i := 0; i < n/2; i++ {
		if err := s.Put(benchKey(i), benchRes(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen phase: full replay of all 3n/2 records.
	t0 = time.Now()
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reopenWall := time.Since(t0)
	st := s2.Stats()
	if st.Entries != n {
		t.Fatalf("entries after reopen = %d, want %d", st.Entries, n)
	}
	// Every appended record, in its last-written form.
	for i := 0; i < n; i++ {
		want := benchRes(i)
		if i < n/2 {
			want = benchRes(i + 1)
		}
		if got, ok, err := s2.Get(benchKey(i)); err != nil || !ok || got.SolverConflicts != want.SolverConflicts {
			t.Fatalf("record %d after reopen: %+v ok=%v err=%v, want %+v", i, got, ok, err, want)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	appendsPerSec := float64(n) / appendWall.Seconds()
	t.Logf("append:  %d records in %v (%.0f/s, %.1f MB/s)", n, appendWall,
		appendsPerSec, float64(bytesAppended)/appendWall.Seconds()/1e6)
	t.Logf("read:    hit %v/op, miss %v/op", hitWall/reads, missWall/reads)
	t.Logf("reopen:  %v for %d records, %d live bytes", reopenWall, n+n/2, st.LiveBytes)

}
