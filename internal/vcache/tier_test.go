package vcache

import (
	"fmt"
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
	if res.Canceled {
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
	e := New(Config{MaxEntries: 2})
	// Entries created before the backing attaches are non-durable.
	e.Do(bg, keyN(0), func() alive.Result { return resN(0) })
	e.SetBacking(b)
	// Computed after attach: written through, durable.
	e.Do(bg, keyN(1), func() alive.Result { return resN(1) })
	if b.puts != 1 {
		t.Fatalf("write-through puts = %d, want 1", b.puts)
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
	// Both evicted verdicts answer from the backing via promotion.
	for _, i := range []int{0, 1} {
		got := e.Do(bg, keyN(i), func() alive.Result {
			t.Fatalf("compute ran for demoted key %d", i)
			return alive.Result{}
		})
		if got.Diag != resN(i).Diag {
			t.Fatalf("demoted verdict %d = %+v", i, got)
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
