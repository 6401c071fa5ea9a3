package vcache

import (
	"context"
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

func equivalent() alive.Result { return alive.Result{Verdict: alive.Equivalent} }

func TestSecondIdenticalQueryIsHit(t *testing.T) {
	e := New(Config{})
	var computes atomic.Int64
	compute := func() alive.Result {
		computes.Add(1)
		time.Sleep(time.Millisecond) // make WallTime observable
		return equivalent()
	}

	r1 := e.Do(bg, keyN(0), compute)
	if r1.Verdict != alive.Equivalent {
		t.Fatalf("verdict = %v, want equivalent", r1.Verdict)
	}
	s := e.Stats()
	if s.Queries != 1 || s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after miss: %+v", s)
	}

	r2 := e.Do(bg, keyN(0), compute)
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
	e.Do(bg, k, equivalent)
	other := k
	other.Opts.SolverBudget /= 2
	e.Do(bg, other, equivalent)
	if s := e.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("distinct Options shared an entry: %+v", s)
	}
}

func TestNonEquivalentVerdictsCachedToo(t *testing.T) {
	e := New(Config{})
	bad := alive.Result{Verdict: alive.SemanticError, Diag: "ERROR: Value mismatch"}
	r1 := e.Do(bg, keyN(1), func() alive.Result { return bad })
	r2 := e.Do(bg, keyN(1), func() alive.Result {
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
	e.Do(bg, keyN(0), func() alive.Result { return budget })
	e.Do(bg, keyN(1), func() alive.Result { return alive.CanceledResult(nil) })
	e.Do(bg, keyN(2), equivalent)
	if s := e.Stats(); s.BudgetExhausted != 1 || s.Canceled != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 budget-exhausted, 1 canceled, 2 misses and entries", s)
	}
}

// TestCanceledResultsNotCached: a Canceled result must be handed back
// but never memoized — the next query under a live context re-runs.
func TestCanceledResultsNotCached(t *testing.T) {
	e := New(Config{})
	var computes atomic.Int64
	first := e.Do(bg, keyN(2), func() alive.Result {
		computes.Add(1)
		return alive.CanceledResult(context.Canceled)
	})
	if first.Reason() != alive.Canceled {
		t.Fatalf("first result = %+v, want canceled inconclusive", first)
	}
	second := e.Do(bg, keyN(2), func() alive.Result {
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
	go e.Do(bg, keyN(3), func() alive.Result {
		close(started)
		<-release
		return equivalent()
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan alive.Result, 1)
	go func() {
		done <- e.Do(ctx, keyN(3), func() alive.Result {
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
	r := e.Do(ctx, keyN(0), func() alive.Result {
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
		ownerDone <- e.Do(bg, keyN(3), func() alive.Result {
			close(started)
			<-release
			return equivalent()
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan alive.Result, 1)
	go func() {
		waiterDone <- e.Do(ctx, keyN(3), func() alive.Result {
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
	if r := e.Do(bg, keyN(3), func() alive.Result {
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
		ownerDone <- e.Do(bg, keyN(4), func() alive.Result {
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
		waiterDone <- e.Do(ctx, keyN(4), func() alive.Result {
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
		ownerDone <- e.Do(ownerCtx, keyN(5), func() alive.Result {
			close(started)
			<-ownerCtx.Done()
			return alive.CanceledResult(ownerCtx.Err())
		})
	}()
	<-started
	waiterDone := make(chan alive.Result, 1)
	go func() {
		waiterDone <- e.Do(bg, keyN(5), equivalent)
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

func TestEvictionRespectsBound(t *testing.T) {
	e := New(Config{MaxEntries: 2})
	for i := 0; i < 5; i++ {
		e.Do(bg, keyN(i), equivalent)
	}
	s := e.Stats()
	if s.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", s.Entries)
	}
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
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
				if r := e.Do(bg, keyN(0), compute); r.Verdict != alive.Equivalent {
					t.Error("wrong verdict")
					return
				}
				if r := e.Do(bg, keyN(1), compute); r.Verdict != alive.Equivalent {
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
	e.Do(bg, keyN(0), compute)
	e.Do(bg, keyN(0), compute) // cache hit: no live solver work
	e.Do(bg, keyN(1), compute)
	if got := e.Stats().SolverConflicts; got != 14 {
		t.Fatalf("SolverConflicts = %d, want 14 (two live runs of 7)", got)
	}
	if got := e.Stats().Counters()["solver_conflicts"]; got != 14 {
		t.Fatalf("Counters()[solver_conflicts] = %d, want 14", got)
	}
}
