package par

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		n := 100
		got := make([]int, n)
		ParallelFor(workers, n, func(i int) { got[i] = i + 1 })
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
	ParallelFor(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestForCompletesWithoutCancel(t *testing.T) {
	var count atomic.Int64
	if err := For(context.Background(), 4, 50, func(int) { count.Add(1) }); err != nil {
		t.Fatalf("For returned %v on an uncanceled run", err)
	}
	if count.Load() != 50 {
		t.Fatalf("ran %d calls, want 50", count.Load())
	}
}

// TestForStopsDispatchingOnCancel: after ctx is canceled from inside
// fn, no index far past the cancellation point may start, all workers
// must have exited by return time (inflight == 0), and the error must
// be the context's.
func TestForStopsDispatchingOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, inflight, atCancel atomic.Int64
		err := For(ctx, workers, 1000, func(i int) {
			inflight.Add(1)
			defer inflight.Add(-1)
			if ran.Add(1) == 3 {
				cancel()
				atCancel.Store(ran.Load())
			}
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if inflight.Load() != 0 {
			t.Fatalf("workers=%d: %d calls still in flight after For returned", workers, inflight.Load())
		}
		// At most one extra dispatch per worker can slip through after
		// cancel returns (a worker already past its ctx check). Counted
		// from cancel's return, not from the third call: the canceling
		// goroutine can be descheduled between the two while the other
		// workers run on, hundreds of calls under the race detector.
		if n := ran.Load() - atCancel.Load(); n > int64(workers) {
			t.Fatalf("workers=%d: %d calls ran after cancel returned", workers, n)
		}
	}
}

// TestForPreCanceledRunsNothing: a context that is already done must
// not dispatch a single call.
func TestForPreCanceledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 4, 100, func(int) { t.Error("fn called under pre-canceled ctx") })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForReturnsPromptly: cancellation mid-run must unblock For well
// before the work list would have drained naturally.
func TestForReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		For(ctx, 2, 100000, func(i int) {
			if i == 0 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("For did not return after cancellation")
	}
}
