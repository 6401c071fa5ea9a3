package oracle

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// remoteFunc adapts a function to the Remote interface.
type remoteFunc func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error)

func (f remoteFunc) VerifyRemote(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
	return f(ctx, src, tgt, opts)
}

// countingRemote answers every query remotely with verdict v (or err),
// counting invocations.
func countingRemote(n *atomic.Int64, res alive.Result, err error) Remote {
	return remoteFunc(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
		n.Add(1)
		return res, err
	})
}

// TestShardInsideCache pins the remote's position inside the
// cache: a memoized verdict is served without a network hop, while a
// fresh query is routed to the remote and its answer memoized.
func TestShardInsideCache(t *testing.T) {
	var remote, base atomic.Int64
	st := NewStack(Config{
		Remote: countingRemote(&remote, alive.Result{Verdict: alive.Equivalent}, nil),
		Base:   countingBase(&base),
	})
	src, tgt := mustParse(t, srcText), mustParse(t, tgtText)
	opts := alive.DefaultOptions()

	for i := 0; i < 3; i++ {
		if r := st.Verify(bg, src, tgt, opts); r.Verdict != alive.Equivalent {
			t.Fatalf("query %d verdict = %v", i, r.Verdict)
		}
	}
	if remote.Load() != 1 {
		t.Fatalf("remote ran %d times, want 1 (remote verdicts must be memoized)", remote.Load())
	}
	if base.Load() != 0 {
		t.Fatalf("local base ran %d times, want 0 (remote answered)", base.Load())
	}
	os, cs := st.OracleStats()
	if os.Queries != 3 || cs.Hits != 2 || cs.Misses != 1 {
		t.Fatalf("stats: oracle %+v cache %+v", os, cs)
	}
}

// TestShardFallsBackToLocal: when the cluster cannot answer (every
// replica down), the query runs on the local base instead of failing.
func TestShardFallsBackToLocal(t *testing.T) {
	var remote, base atomic.Int64
	st := NewStack(Config{
		Remote: countingRemote(&remote, alive.Result{}, errors.New("no replica reachable")),
		Base:   countingBase(&base),
	})
	src, tgt := mustParse(t, srcText), mustParse(t, tgtText)
	if r := st.Verify(bg, src, tgt, alive.DefaultOptions()); r.Verdict != alive.Equivalent {
		t.Fatalf("fallback verdict = %v", r.Verdict)
	}
	if remote.Load() != 1 || base.Load() != 1 {
		t.Fatalf("remote ran %d, base ran %d; want 1 and 1", remote.Load(), base.Load())
	}
}

// TestShardCanceledNoFallback: a query whose own context ends during
// the remote attempt is returned Canceled, not re-run on the local
// verifier — the caller is gone and a local solve would be wasted
// work — and the Canceled result is not memoized.
func TestShardCanceledNoFallback(t *testing.T) {
	var base atomic.Int64
	ctx, cancel := context.WithCancel(bg)
	dying := remoteFunc(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
		cancel() // the caller gives up mid-attempt
		return alive.Result{}, errors.New("replica lost")
	})
	st := NewStack(Config{Remote: dying, Base: countingBase(&base)})
	src, tgt := mustParse(t, srcText), mustParse(t, tgtText)
	r := st.Verify(ctx, src, tgt, alive.DefaultOptions())
	if r.Reason() != alive.Canceled {
		t.Fatalf("canceled remote query: %+v", r)
	}
	if base.Load() != 0 {
		t.Fatalf("local base ran %d times after cancellation, want 0", base.Load())
	}
	if os, cs := st.OracleStats(); os.ByReason[alive.Canceled] != 1 || cs.Canceled != 1 || cs.Entries != 0 {
		t.Fatalf("stats after a canceled remote query: oracle %+v cache %+v", os, cs)
	}
}
