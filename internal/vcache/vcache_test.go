package vcache

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

var bg = context.Background()

func keyN(i int) Key {
	return Key{Src: string(rune('a' + i)), Dst: "t", Opts: alive.DefaultOptions()}
}

// doKey asks e for k's verdict, as a caller holding k's texts does.
func (e *Engine) doKey(ctx context.Context, k Key, compute func() alive.Result) alive.Result {
	return e.Do(ctx, []byte(k.Src), []byte(k.Dst), k.Opts, compute)
}

func equivalent() alive.Result { return alive.Result{Verdict: alive.Equivalent} }

func TestSecondIdenticalQueryIsHit(t *testing.T) {
	e := New(Config{})
	var computes atomic.Int64
	compute := func() alive.Result {
		computes.Add(1)
		time.Sleep(time.Millisecond) // make WallTime observable
		return equivalent()
	}

	r1 := e.doKey(bg, keyN(0), compute)
	if r1.Verdict != alive.Equivalent {
		t.Fatalf("verdict = %v, want equivalent", r1.Verdict)
	}
	s := e.Stats()
	if s.Queries != 1 || s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after miss: %+v", s)
	}

	r2 := e.doKey(bg, keyN(0), compute)
	if r2.Verdict != r1.Verdict || r2.Diag != r1.Diag {
		t.Fatalf("cached result differs: %+v vs %+v", r2, r1)
	}
	s = e.Stats()
	if s.Queries != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after hit: %+v", s)
	}
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	if s.WallTime <= 0 {
		t.Fatal("no compute wall time recorded")
	}
}

func TestDifferentOptionsAreDifferentKeys(t *testing.T) {
	e := New(Config{})
	k := keyN(0)
	e.doKey(bg, k, equivalent)
	other := k
	other.Opts.SolverBudget /= 2
	e.doKey(bg, other, equivalent)
	if s := e.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("distinct Options shared an entry: %+v", s)
	}
}

func TestNonEquivalentVerdictsCachedToo(t *testing.T) {
	e := New(Config{})
	bad := alive.Result{Verdict: alive.SemanticError, Diag: "ERROR: Value mismatch"}
	r1 := e.doKey(bg, keyN(1), func() alive.Result { return bad })
	r2 := e.doKey(bg, keyN(1), func() alive.Result {
		t.Error("compute re-ran for a cached semantic verdict")
		return bad
	})
	if r2.Verdict != r1.Verdict || r2.Diag != r1.Diag {
		t.Fatal("cached semantic verdict differs")
	}
	if s := e.Stats(); s.Hits != 1 {
		t.Fatalf("semantic verdict not cached: %+v", s)
	}
}

// TestBudgetExhaustedCountsConflictBudget: a compute that ran out of
// conflict budget counts under BudgetExhausted and is kept like any
// verdict; a canceled compute and a decided one do not count there.
func TestBudgetExhaustedCountsConflictBudget(t *testing.T) {
	src, err := ir.ParseFunc("define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %s = add i6 %y, %z\n  %r = mul i6 %x, %s\n  ret i6 %r\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ir.ParseFunc("define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %a = mul i6 %x, %y\n  %b = mul i6 %x, %z\n  %r = add i6 %a, %b\n  ret i6 %r\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	opts := alive.DefaultOptions()
	opts.SolverBudget = 1
	budget := alive.VerifyFuncs(src, tgt, opts)
	if budget.Reason() != alive.ConflictBudget {
		t.Fatalf("x*(y+z) against x*y+x*z in 1 conflict: %v, reason %q (%s)", budget.Verdict, budget.Reason(), budget.Diag)
	}
	e := New(Config{})
	e.doKey(bg, keyN(0), func() alive.Result { return budget })
	e.doKey(bg, keyN(1), func() alive.Result { return alive.CanceledResult(nil) })
	e.doKey(bg, keyN(2), equivalent)
	if s := e.Stats(); s.BudgetExhausted != 1 || s.Canceled != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 budget-exhausted, 1 canceled, 2 misses and entries", s)
	}
}

// TestCanceledResultsNotCached: a Canceled result must be handed back
// but never memoized — the next query under a live context re-runs.
func TestCanceledResultsNotCached(t *testing.T) {
	e := New(Config{})
	var computes atomic.Int64
	first := e.doKey(bg, keyN(2), func() alive.Result {
		computes.Add(1)
		return alive.CanceledResult(context.Canceled)
	})
	if first.Reason() != alive.Canceled {
		t.Fatalf("first result = %+v, want canceled inconclusive", first)
	}
	second := e.doKey(bg, keyN(2), func() alive.Result {
		computes.Add(1)
		return equivalent()
	})
	if second.Verdict != alive.Equivalent {
		t.Fatalf("second result = %+v, want live equivalent", second)
	}
	if computes.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (canceled result must not stick)", computes.Load())
	}
	if s := e.Stats(); s.Canceled != 1 || s.Entries != 1 {
		t.Fatalf("stats after canceled run: %+v", s)
	}
}

// TestDuplicateWaiterUnblocksOnOwnCancel: a caller blocked on another
// caller's in-flight compute must return as soon as its own context
// ends, even though the compute is still running.
func TestDuplicateWaiterUnblocksOnOwnCancel(t *testing.T) {
	e := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	go e.doKey(bg, keyN(3), func() alive.Result {
		close(started)
		<-release
		return equivalent()
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan alive.Result, 1)
	go func() {
		done <- e.doKey(ctx, keyN(3), func() alive.Result {
			t.Error("duplicate caller ran compute")
			return equivalent()
		})
	}()
	cancel()
	select {
	case r := <-done:
		if r.Reason() != alive.Canceled {
			t.Fatalf("duplicate waiter result = %+v, want canceled", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate waiter did not unblock on its own cancel")
	}
	close(release)
}

// TestPreCanceledContextShortCircuits: a query whose context is
// already done at entry must return a Canceled result without running
// the solver, counted under Canceled — not Hits or Misses.
func TestPreCanceledContextShortCircuits(t *testing.T) {
	e := New(Config{})
	ctx, cancel := context.WithCancel(bg)
	cancel()
	r := e.doKey(ctx, keyN(0), func() alive.Result {
		t.Error("compute ran under a pre-canceled context")
		return equivalent()
	})
	if r.Reason() != alive.Canceled {
		t.Fatalf("result = %+v, want canceled inconclusive", r)
	}
	s := e.Stats()
	if s.Queries != 1 || s.Hits != 0 || s.Misses != 0 || s.Canceled != 1 {
		t.Fatalf("pre-canceled query misclassified: %+v", s)
	}
	if s.Entries != 0 {
		t.Fatalf("pre-canceled query stored an entry: %+v", s)
	}
}

// TestWaiterCancelCountsCanceledNotHit: a dedup waiter whose own
// context expires returns a Canceled result — it was never answered,
// so it must count under Canceled, not inflate the hit rate.
func TestWaiterCancelCountsCanceledNotHit(t *testing.T) {
	e := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan alive.Result, 1)
	go func() {
		ownerDone <- e.doKey(bg, keyN(3), func() alive.Result {
			close(started)
			<-release
			return equivalent()
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan alive.Result, 1)
	go func() {
		waiterDone <- e.doKey(ctx, keyN(3), func() alive.Result {
			t.Error("duplicate caller ran compute")
			return equivalent()
		})
	}()
	cancel()
	select {
	case r := <-waiterDone:
		if r.Reason() != alive.Canceled {
			t.Fatalf("waiter result = %+v, want canceled", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not unblock on its own cancel")
	}
	s := e.Stats()
	if s.Hits != 0 {
		t.Fatalf("canceled waiter counted as a hit: %+v", s)
	}
	if s.Canceled != 1 {
		t.Fatalf("canceled waiter not counted under Canceled: %+v", s)
	}

	close(release)
	if r := <-ownerDone; r.Verdict != alive.Equivalent {
		t.Fatalf("owner result = %+v", r)
	}
	// The owner's live run and a subsequent cached answer classify as
	// before: one miss, then one genuine hit.
	if r := e.doKey(bg, keyN(3), func() alive.Result {
		t.Error("compute re-ran for a cached verdict")
		return equivalent()
	}); r.Verdict != alive.Equivalent {
		t.Fatalf("cached result = %+v", r)
	}
	s = e.Stats()
	if s.Queries != 3 || s.Hits != 1 || s.Misses != 1 || s.Canceled != 1 {
		t.Fatalf("final stats misclassified: %+v", s)
	}
}

// TestWaiterAnsweredByOwnerIsHit pins the other side of the waiter
// classification: a dedup waiter that does receive the owner's result
// is a hit.
func TestWaiterAnsweredByOwnerIsHit(t *testing.T) {
	e := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan alive.Result, 1)
	go func() {
		ownerDone <- e.doKey(bg, keyN(4), func() alive.Result {
			close(started)
			<-release
			return equivalent()
		})
	}()
	<-started
	waiterDone := make(chan alive.Result, 1)
	go func() {
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		waiterDone <- e.doKey(ctx, keyN(4), func() alive.Result {
			t.Error("duplicate caller ran compute")
			return equivalent()
		})
	}()
	// Give the waiter a moment to join the in-flight call, then let
	// the owner finish; the waiter must come back with the owner's
	// verdict and count as a hit.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-ownerDone
	if r := <-waiterDone; r.Verdict != alive.Equivalent {
		t.Fatalf("waiter result = %+v, want owner's equivalent", r)
	}
	s := e.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Canceled != 0 {
		t.Fatalf("answered waiter misclassified: %+v", s)
	}
}

// TestWaiterSurvivesOwnerCancel: a Canceled result says that the
// owner's caller left, nothing about the query. A dedup waiter whose
// own context is live must not be handed it (two /v1/verify requests
// for one key with different deadlines: the short one's expiry was
// served to the long one as a 200): it goes round again and computes.
func TestWaiterSurvivesOwnerCancel(t *testing.T) {
	e := New(Config{})
	ownerCtx, cancelOwner := context.WithCancel(bg)
	started := make(chan struct{})
	ownerDone := make(chan alive.Result, 1)
	go func() {
		ownerDone <- e.doKey(ownerCtx, keyN(5), func() alive.Result {
			close(started)
			<-ownerCtx.Done()
			return alive.CanceledResult(ownerCtx.Err())
		})
	}()
	<-started
	waiterDone := make(chan alive.Result, 1)
	go func() {
		waiterDone <- e.doKey(bg, keyN(5), equivalent)
	}()
	// Let the waiter park on the owner's call before the owner's
	// caller gives up.
	for e.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	cancelOwner()
	if r := <-ownerDone; r.Reason() != alive.Canceled {
		t.Fatalf("owner result = %+v, want canceled", r)
	}
	select {
	case r := <-waiterDone:
		if r.Verdict != alive.Equivalent {
			t.Fatalf("waiter under a live context got %+v, want the computed verdict", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never returned")
	}
	if s := e.Stats(); s.Queries != 2 || s.Canceled != 1 || s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 canceled, 1 miss, 0 hits, 1 entry", s)
	}
}

// TestPanickingComputeReleasesItsSlot: a compute that panics (the
// server's recover answers the request 500) must leave the key free. A
// caller already waiting on it goes round and computes, never reading
// the zero Result (whose verdict is Equivalent), and a later caller
// with no deadline, as the trainer's are, is answered too.
func TestPanickingComputeReleasesItsSlot(t *testing.T) {
	e := New(Config{})
	bad := alive.Result{Verdict: alive.SemanticError, Diag: "ERROR: Value mismatch"}
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		e.doKey(bg, keyN(6), func() alive.Result {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started
	waiterDone := make(chan alive.Result, 1)
	go func() { waiterDone <- e.doKey(bg, keyN(6), func() alive.Result { return bad }) }()
	// Let the waiter park on the owner's call before the owner panics.
	for e.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-panicked; r != "compute failed" {
		t.Fatalf("the owner's panic reached its caller as %v", r)
	}
	deadline := time.After(5 * time.Second)
	select {
	case r := <-waiterDone:
		if r.Verdict != bad.Verdict {
			t.Fatalf("waiter got %+v, want its own computed verdict", r)
		}
	case <-deadline:
		t.Fatal("the waiter never returned: the panicking owner kept the slot")
	}
	later := make(chan alive.Result, 1)
	go func() { later <- e.doKey(bg, keyN(6), equivalent) }()
	select {
	case r := <-later:
		if r.Verdict != bad.Verdict {
			t.Fatalf("a later query got %+v, want the waiter's cached verdict", r)
		}
	case <-deadline:
		t.Fatal("a later query never returned")
	}

	// The same for a backing store whose Get panics.
	e = New(Config{Backing: &panickingBacking{}})
	func() {
		defer func() { recover() }()
		e.doKey(bg, keyN(7), equivalent)
	}()
	done := make(chan alive.Result, 1)
	go func() {
		defer func() { recover() }()
		done <- e.doKey(bg, keyN(7), equivalent)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a query after a panicking Get never returned")
	}
}

// panickingBacking panics on its first Get and answers misses after.
type panickingBacking struct{ gets atomic.Int64 }

func (b *panickingBacking) Get(Key) (alive.Result, bool, error) {
	if b.gets.Add(1) == 1 {
		panic("backing failed")
	}
	return alive.Result{}, false, nil
}

func (*panickingBacking) Put(Key, alive.Result) error { return nil }

func TestEvictionRespectsBound(t *testing.T) {
	e := New(Config{MaxEntries: 2})
	for i := 0; i < 5; i++ {
		e.doKey(bg, keyN(i), equivalent)
	}
	s := e.Stats()
	if s.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", s.Entries)
	}
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
	}
}

// TestInFlightIsNotResident: an entry in flight shares the engine's map
// with the residents, but only residents count against MaxEntries or are
// evicted. With a bound of 1, key A computes while B and C settle (one
// eviction), Entries reads 1 throughout, A's waiter is woken to A's own
// verdict, and A's settling evicts C.
func TestInFlightIsNotResident(t *testing.T) {
	e := New(Config{MaxEntries: 1})
	a := keyN(0)
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan alive.Result, 1)
	go func() {
		owner <- e.doKey(bg, a, func() alive.Result { close(started); <-release; return resN(1) })
	}()
	<-started
	waiter := make(chan alive.Result, 1)
	go func() {
		waiter <- e.doKey(bg, a, func() alive.Result {
			t.Error("duplicate caller ran compute")
			return equivalent()
		})
	}()
	for e.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	e.doKey(bg, keyN(1), func() alive.Result { return resN(2) })
	e.doKey(bg, keyN(2), func() alive.Result { return resN(3) })
	if s := e.Stats(); s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("with A in flight: %d entries, %d evictions, want 1 and 1", s.Entries, s.Evictions)
	}
	close(release)
	for name, ch := range map[string]chan alive.Result{"owner": owner, "waiter": waiter} {
		if r := <-ch; r.Diag != resN(1).Diag || r.SolverConflicts != resN(1).SolverConflicts {
			t.Fatalf("%s got %+v, want A's verdict %+v", name, r, resN(1))
		}
	}
	if s := e.Stats(); s.Entries != 1 || s.Evictions != 2 || s.Hits != 1 || s.Misses != 3 {
		t.Fatalf("after A settles: %+v, want 1 entry, 2 evictions, 1 hit, 3 misses", s)
	}
	if r := e.doKey(bg, a, equivalent); r.Diag != resN(1).Diag {
		t.Fatalf("A is not the resident: got %+v", r)
	}
}

func TestConcurrentQueriesRaceFree(t *testing.T) {
	e := New(Config{})
	var computes atomic.Int64
	compute := func() alive.Result {
		computes.Add(1)
		return equivalent()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if r := e.doKey(bg, keyN(0), compute); r.Verdict != alive.Equivalent {
					t.Error("wrong verdict")
					return
				}
				if r := e.doKey(bg, keyN(1), compute); r.Verdict != alive.Equivalent {
					t.Error("wrong verdict")
					return
				}
			}
		}()
	}
	wg.Wait()
	s := e.Stats()
	if want := uint64(8 * 20 * 2); s.Queries != want {
		t.Fatalf("queries = %d, want %d", s.Queries, want)
	}
	// Singleflight + cache: at most one live computation per key.
	if computes.Load() > 2 {
		t.Fatalf("computes = %d, want <= 2 (singleflight)", computes.Load())
	}
}

func TestSolverConflictsAccumulateOnLiveRunsOnly(t *testing.T) {
	e := New(Config{})
	compute := func() alive.Result {
		return alive.Result{Verdict: alive.Equivalent, SolverConflicts: 7}
	}
	e.doKey(bg, keyN(0), compute)
	e.doKey(bg, keyN(0), compute) // cache hit: no live solver work
	e.doKey(bg, keyN(1), compute)
	if got := e.Stats().SolverConflicts; got != 14 {
		t.Fatalf("SolverConflicts = %d, want 14 (two live runs of 7)", got)
	}
	if got := e.Stats().Counters()["solver_conflicts"]; got != 14 {
		t.Fatalf("Counters()[solver_conflicts] = %d, want 14", got)
	}
}

// TestMissAllocatesOneEntry: a miss with no backing allocates the entry
// it keeps, which held the singleflight slot while the computation ran,
// and nothing else: no channel, since nobody waits. The map is sized
// beforehand, so that its growth is not counted. It read 3 while the
// slot was a call of its own with its channel made up front.
func TestMissAllocatesOneEntry(t *testing.T) {
	const runs = 100
	e := New(Config{})
	e.entries = make(map[[sha256.Size]byte]*entry, runs+1)
	srcs := make([][]byte, runs+1) // AllocsPerRun's warm-up run and runs more
	for i := range srcs {
		srcs[i] = []byte(fmt.Sprintf("define i32 @f%d", i))
	}
	dst, i := []byte("t"), 0
	got := testing.AllocsPerRun(runs, func() {
		e.Do(bg, srcs[i], dst, alive.DefaultOptions(), equivalent)
		i++
	})
	if s := e.Stats(); s.Misses != runs+1 || s.Entries != runs+1 {
		t.Fatalf("stats = %+v, want %d misses, each resident", s, runs+1)
	}
	if got > 1 {
		t.Errorf("a miss allocates %.1f, want at most 1 (its entry)", got)
	}
}

// TestEveryAnswerIsCounted drives a scripted mix through every return
// of Do and requires each answer counted once, by verdict and by
// reason: ΣByVerdict = ΣByReason = Queries, and Canceled is ByReason's
// Canceled slot.
func TestEveryAnswerIsCounted(t *testing.T) {
	backing := newMemBacking()
	e := New(Config{Backing: backing})
	syntax := alive.Result{Verdict: alive.SyntaxError, Diag: "ERROR: couldn't parse transformed IR: x"}
	unsupported := alive.Result{Verdict: alive.Inconclusive, Diag: "ERROR: unsupported construct"}
	canceled := alive.CanceledResult(nil)
	check := func(what string, got, want alive.Result) {
		t.Helper()
		if got.Verdict != want.Verdict || got.Reason() != want.Reason() {
			t.Fatalf("%s: %+v, want %+v", what, got, want)
		}
	}
	// until waits for k's entry in flight to satisfy ok, under e.mu.
	until := func(k Key, ok func(ent *entry) bool) {
		fp := k.Fingerprint()
		for {
			e.mu.Lock()
			ent := e.entries[fp]
			met := ent != nil && ent.prev == nil && ok(ent)
			e.mu.Unlock()
			if met {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	// start has a caller compute k's verdict res once release closes,
	// and returns once it holds k's slot.
	start := func(k Key, res alive.Result) (release chan struct{}, answer chan alive.Result) {
		release, answer = make(chan struct{}), make(chan alive.Result, 1)
		go func() { answer <- e.doKey(bg, k, func() alive.Result { <-release; return res }) }()
		until(k, func(*entry) bool { return true })
		return release, answer
	}
	// join asks for k under ctx and returns once it waits on k's owner.
	join := func(ctx context.Context, k Key) chan alive.Result {
		answer := make(chan alive.Result, 1)
		go func() { answer <- e.doKey(ctx, k, equivalent) }()
		until(k, func(ent *entry) bool { return ent.done != nil })
		return answer
	}

	// A computed miss, then a hot-tier hit.
	check("miss", e.doKey(bg, keyN(0), equivalent), equivalent())
	check("hot-tier hit", e.doKey(bg, keyN(0), equivalent), equivalent())
	// A backing promotion.
	if err := backing.Put(keyN(1), resN(1)); err != nil {
		t.Fatal(err)
	}
	check("promotion", e.doKey(bg, keyN(1), equivalent), resN(1))
	// A waiter woken to its owner's verdict.
	release, owner := start(keyN(2), syntax)
	waiter := join(bg, keyN(2))
	close(release)
	check("owner", <-owner, syntax)
	check("waiter woken to its owner's verdict", <-waiter, syntax)
	// A ctx that is done at entry.
	done, cancel := context.WithCancel(bg)
	cancel()
	check("ctx done at entry", e.doKey(done, keyN(0), equivalent), canceled)
	// A waiter whose ctx ends while its owner computes on.
	ctx, cancel := context.WithCancel(bg)
	release, owner = start(keyN(3), unsupported)
	waiter = join(ctx, keyN(3))
	cancel()
	check("waiter whose ctx ends", <-waiter, canceled)
	close(release)
	check("owner", <-owner, unsupported)
	// A compute that ends Canceled.
	check("canceled compute", e.doKey(bg, keyN(4), func() alive.Result { return canceled }), canceled)
	// A waiter woken to a canceled owner goes round and computes.
	release, owner = start(keyN(5), canceled)
	waiter = join(bg, keyN(5))
	close(release)
	check("canceled owner", <-owner, canceled)
	check("waiter woken to a canceled owner", <-waiter, equivalent())

	s := e.Stats()
	var verdicts, reasons uint64
	for _, n := range s.ByVerdict {
		verdicts += n
	}
	for _, n := range s.ByReason {
		reasons += n
	}
	if s.Queries != 11 || verdicts != s.Queries || reasons != s.Queries || s.Canceled != s.ByReason[alive.Canceled] {
		t.Fatalf("%d queries, %d by verdict, %d by reason, %d canceled: %+v", s.Queries, verdicts, reasons, s.Canceled, s)
	}
	if want := [4]uint64{alive.Equivalent: 3, alive.SemanticError: 1, alive.SyntaxError: 2, alive.Inconclusive: 5}; s.ByVerdict != want {
		t.Errorf("ByVerdict = %v, want %v", s.ByVerdict, want)
	}
	var want [6]uint64
	want[alive.NoReason], want[alive.Canceled], want[unsupported.Reason()] = 6, 4, 1
	if s.ByReason != want {
		t.Errorf("ByReason = %v, want %v", s.ByReason, want)
	}
	if s.Hits != 3 || s.Misses != 4 || s.Promotions != 1 {
		t.Errorf("%d hits, %d misses, %d promotions, want 3, 4 and 1", s.Hits, s.Misses, s.Promotions)
	}
}
