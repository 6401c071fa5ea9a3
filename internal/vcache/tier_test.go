package vcache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"veriopt/internal/alive"
)

// memBacking is a test double for the durable tier: a map plus
// counters, with an optional injected failure.
type memBacking struct {
	mu   sync.Mutex
	m    map[Key]alive.Result
	gets int
	puts int
	fail bool
}

func resN(i int) alive.Result {
	return alive.Result{Verdict: alive.SemanticError, Diag: fmt.Sprintf("ERROR: Value mismatch %d", i),
		Counterexample: map[string]uint64{"0": uint64(i)}, SolverConflicts: 10 * i}
}

func newMemBacking() *memBacking { return &memBacking{m: make(map[Key]alive.Result)} }

func (b *memBacking) Get(k Key) (alive.Result, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	if b.fail {
		return alive.Result{}, false, fmt.Errorf("injected backing failure")
	}
	res, ok := b.m[k]
	return res, ok, nil
}

func (b *memBacking) Put(k Key, res alive.Result) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	if b.fail {
		return fmt.Errorf("injected backing failure")
	}
	if res.Reason() == alive.Canceled {
		return fmt.Errorf("memBacking: refusing Canceled verdict")
	}
	b.m[k] = res
	return nil
}

func (b *memBacking) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

func (b *memBacking) has(k Key) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[k]
	return ok
}

// TestLRUKeepsHotEntryUnderEvictionPressure pins the promote-on-hit
// policy: an entry that keeps getting hit survives a stream of
// one-shot keys that overflows the bound many times over. Under the
// old FIFO policy the hot entry aged out by insertion order no matter
// how often it was used.
func TestLRUKeepsHotEntryUnderEvictionPressure(t *testing.T) {
	e := New(Config{MaxEntries: 4})
	hot := keyN(0)
	e.Do(bg, hot, equivalent)
	for i := 1; i <= 20; i++ {
		e.Do(bg, hot, func() alive.Result {
			t.Fatal("hot entry evicted despite constant hits")
			return alive.Result{}
		})
		e.Do(bg, keyN(i), equivalent)
	}
	s := e.Stats()
	if s.Entries != 4 {
		t.Fatalf("entries = %d, want 4", s.Entries)
	}
	if s.Evictions != 17 { // 21 inserts - 4 resident
		t.Fatalf("evictions = %d, want 17", s.Evictions)
	}
}

// TestLRUEvictsColdestNotOldest pins the order: after hitting the
// oldest entry, an overflow must evict the second-oldest instead.
func TestLRUEvictsColdestNotOldest(t *testing.T) {
	e := New(Config{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		e.Do(bg, keyN(i), equivalent)
	}
	e.Do(bg, keyN(0), equivalent) // key 0 is now most recent
	e.Do(bg, keyN(3), equivalent) // overflow: key 1 is the coldest

	e.Do(bg, keyN(0), func() alive.Result {
		t.Fatal("recently-hit oldest entry was evicted")
		return alive.Result{}
	})
	var computes int
	e.Do(bg, keyN(1), func() alive.Result { computes++; return equivalent() })
	if computes != 1 {
		t.Fatal("coldest entry (key 1) survived the overflow")
	}
}

func TestComputedVerdictsWriteThrough(t *testing.T) {
	b := newMemBacking()
	e := New(Config{MaxEntries: 8, Backing: b})
	for i := 0; i < 5; i++ {
		i := i
		e.Do(bg, keyN(i), func() alive.Result { return resN(i) })
	}
	// Every computed verdict is durable immediately, not at eviction or
	// shutdown.
	if b.len() != 5 {
		t.Fatalf("backing holds %d verdicts, want 5", b.len())
	}
	if b.puts != 5 {
		t.Fatalf("backing puts = %d, want 5", b.puts)
	}
}

func TestBackingHitPromotesWithoutCompute(t *testing.T) {
	b := newMemBacking()
	b.m[keyN(0)] = resN(7)
	e := New(Config{MaxEntries: 8, Backing: b})

	got := e.Do(bg, keyN(0), func() alive.Result {
		t.Fatal("compute ran for a verdict the backing holds")
		return alive.Result{}
	})
	if got.Diag != resN(7).Diag {
		t.Fatalf("promoted result = %+v, want %+v", got, resN(7))
	}
	s := e.Stats()
	if s.Hits != 1 || s.Promotions != 1 || s.Misses != 0 || s.Entries != 1 {
		t.Fatalf("after promotion: %+v", s)
	}
	// The promoted entry is hot now: the next query never touches disk.
	gets := b.gets
	e.Do(bg, keyN(0), func() alive.Result { t.Fatal("compute ran"); return alive.Result{} })
	if b.gets != gets {
		t.Fatal("hot-tier hit read the backing")
	}
	// Promotion does not rewrite an already-durable verdict.
	if b.puts != 0 {
		t.Fatalf("promotion wrote %d puts back to the backing", b.puts)
	}
}

func TestEvictionDemotesNonDurableOnly(t *testing.T) {
	b := newMemBacking()
	e := New(Config{MaxEntries: 2, Backing: b})
	// A failed write-through leaves the entry owing the backing a
	// write: it is the one kind of entry that keeps its full key.
	b.fail = true
	e.Do(bg, keyN(0), func() alive.Result { return resN(0) })
	b.fail = false
	if ent := e.entries[keyN(0).Fingerprint()]; ent.owed == nil || *ent.owed != keyN(0) {
		t.Fatalf("entry whose write-through failed keeps key %v, want %v", ent.owed, keyN(0))
	}
	// Written through: durable, and nothing but digest and verdict stay.
	puts := b.puts
	e.Do(bg, keyN(1), func() alive.Result { return resN(1) })
	if b.puts != puts+1 {
		t.Fatalf("write-through puts = %d, want %d", b.puts, puts+1)
	}
	if ent := e.entries[keyN(1).Fingerprint()]; ent.owed != nil {
		t.Fatalf("durable entry still holds its key: %v", ent.owed)
	}
	// Overflow twice: key 0 (non-durable) demotes with a Put; key 1
	// (durable) demotes without one.
	e.Do(bg, keyN(2), func() alive.Result { return resN(2) })
	if !b.has(keyN(0)) {
		t.Fatal("non-durable eviction was discarded instead of demoted")
	}
	putsAfterDemote := b.puts
	e.Do(bg, keyN(3), func() alive.Result { return resN(3) })
	s := e.Stats()
	if s.Evictions != 2 || s.Demotions != 2 {
		t.Fatalf("evictions/demotions: %+v", s)
	}
	// key 1's demotion reused its write-through: only key 3's own
	// write-through moved the counter.
	if b.puts != putsAfterDemote+1 {
		t.Fatalf("durable eviction re-wrote the backing: puts %d -> %d", putsAfterDemote, b.puts)
	}
	// Both evicted verdicts answer from the backing via promotion, and
	// a promoted entry holds no key either.
	for _, i := range []int{0, 1} {
		got := e.Do(bg, keyN(i), func() alive.Result {
			t.Fatalf("compute ran for demoted key %d", i)
			return alive.Result{}
		})
		if got.Diag != resN(i).Diag {
			t.Fatalf("demoted verdict %d = %+v", i, got)
		}
		if ent := e.entries[keyN(i).Fingerprint()]; ent.owed != nil {
			t.Fatalf("promoted entry %d holds its key: %v", i, ent.owed)
		}
	}
}

func TestBackingErrorsDegradeToSolver(t *testing.T) {
	b := newMemBacking()
	b.fail = true
	e := New(Config{MaxEntries: 8, Backing: b})
	var computes int
	got := e.Do(bg, keyN(0), func() alive.Result { computes++; return resN(0) })
	if computes != 1 || got.Diag != resN(0).Diag {
		t.Fatalf("query not answered by solver: computes=%d res=%+v", computes, got)
	}
	s := e.Stats()
	// One failed read, one failed write-through.
	if s.StoreErrors != 2 {
		t.Fatalf("store errors = %d, want 2", s.StoreErrors)
	}
	// The verdict is still served from the hot tier afterwards.
	e.Do(bg, keyN(0), func() alive.Result { t.Fatal("compute ran"); return alive.Result{} })
}

func TestCanceledNeverReachesBacking(t *testing.T) {
	b := newMemBacking()
	e := New(Config{MaxEntries: 1, Backing: b})
	e.Do(bg, keyN(0), func() alive.Result { return alive.CanceledResult(nil) })
	if b.puts != 0 {
		t.Fatal("canceled verdict was written through")
	}
	// A canceled result planted in the backing is never promoted.
	b.m[keyN(1)] = alive.CanceledResult(nil)
	var computes int
	e.Do(bg, keyN(1), func() alive.Result { computes++; return resN(1) })
	if computes != 1 {
		t.Fatal("canceled backing entry served as an answer")
	}
	if s := e.Stats(); s.Promotions != 0 {
		t.Fatalf("promotions = %d, want 0", s.Promotions)
	}
}

// sinkBacking accepts every write and retains nothing, so that what
// the heap holds after a fill is the hot tier's alone.
type sinkBacking struct{}

func (sinkBacking) Get(Key) (alive.Result, bool, error) { return alive.Result{}, false, nil }
func (sinkBacking) Put(Key, alive.Result) error         { return nil }

// TestHotTierBytesPerEntry bounds what a resident verdict weighs. The
// keys are corpus-shaped (two function texts, 700 bytes together, built
// afresh per query as KeyOfFunc builds them) and a third of the verdicts
// carry what a SemanticError carries: a diagnostic and a two-parameter
// counterexample. While entries were keyed by the texts this read
// 1 178 bytes, and reads 326 now; the bound leaves room for the map's
// growth policy, not for a text.
func TestHotTierBytesPerEntry(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name    string
		backing Backing
	}{{"no backing", nil}, {"written through", sinkBacking{}}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{MaxEntries: 2 * n, Backing: tc.backing})
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				k := Key{
					Src:  fmt.Sprintf("define i32 @f%d(i32 noundef %%0, i32 noundef %%1) {%s}", i, strings.Repeat(" %3 = add nsw i32 %0, %1", 14)),
					Dst:  fmt.Sprintf("define i32 @f%d(i32 noundef %%0, i32 noundef %%1) {%s}", i, strings.Repeat(" %3 = shl i32 %0, 1", 14)),
					Opts: alive.DefaultOptions(),
				}
				if len(k.Src)+len(k.Dst) < 600 {
					t.Fatalf("key texts are %d bytes, want a corpus-sized key", len(k.Src)+len(k.Dst))
				}
				e.Do(bg, k, func() alive.Result {
					if i%3 != 0 {
						return alive.Result{Verdict: alive.Equivalent, SolverConflicts: i}
					}
					return alive.Result{Verdict: alive.SemanticError, SolverConflicts: i,
						Diag:           fmt.Sprintf("ERROR: Value mismatch\n\nExample:\ni32 %%0 = #x%08x (%d)\ni32 %%1 = #x00000001 (1)\nSource value: i32 %d\nTarget value: i32 %d", i, i, i+1, 2*i),
						Counterexample: map[string]uint64{strings.Clone("0"): uint64(i), strings.Clone("1"): 1}}
				})
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if got := e.Stats().Entries; got != n {
				t.Fatalf("%d entries resident, want %d", got, n)
			}
			per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
			t.Logf("%d bytes per resident verdict", per)
			if per > 400 {
				t.Errorf("a resident verdict weighs %d bytes, want <= 400", per)
			}
			runtime.KeepAlive(e)
		})
	}
}
