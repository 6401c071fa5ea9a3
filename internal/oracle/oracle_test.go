package oracle

import (
	"context"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

var bg = context.Background()

func mustParse(t *testing.T, text string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunc(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	return f
}

const srcText = `define i32 @f(i32 noundef %x) {
  %r = add i32 %x, 0
  ret i32 %r
}`

const tgtText = `define i32 @f(i32 noundef %x) {
  ret i32 %x
}`

const badText = `define i32 @f(i32 noundef %x) {
  %r = add i32 %x, 1
  ret i32 %r
}`

// countingBase returns an instant-equivalent base oracle that counts
// its invocations.
func countingBase(n *atomic.Int64) Oracle {
	return Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		n.Add(1)
		return alive.Result{Verdict: alive.Equivalent}
	})
}

func TestStackVerifiesRealPair(t *testing.T) {
	st := NewStack(Config{})
	src, tgt, bad := mustParse(t, srcText), mustParse(t, tgtText), mustParse(t, badText)
	if r := st.Verify(bg, src, tgt, alive.DefaultOptions()); r.Verdict != alive.Equivalent {
		t.Fatalf("verdict = %v (%s), want equivalent", r.Verdict, r.Diag)
	}
	if r := st.Verify(bg, src, bad, alive.DefaultOptions()); r.Verdict != alive.SemanticError {
		t.Fatalf("verdict = %v, want semantic_error", r.Verdict)
	}
	os, cs := st.OracleStats()
	if os.Queries != 2 || os.ByVerdict[alive.Equivalent] != 1 || os.ByVerdict[alive.SemanticError] != 1 {
		t.Fatalf("oracle stats: %+v", os)
	}
	if cs.Misses != 2 {
		t.Fatalf("cache stats: %+v", cs)
	}
}

// TestStatsOutsideCache: the stats layer counts every query including
// cache hits, while the engine's misses count only live runs.
func TestStatsOutsideCache(t *testing.T) {
	var base atomic.Int64
	st := NewStack(Config{Base: countingBase(&base)})
	src, tgt := mustParse(t, srcText), mustParse(t, tgtText)
	for i := 0; i < 3; i++ {
		st.Verify(bg, src, tgt, alive.DefaultOptions())
	}
	os, cs := st.OracleStats()
	if os.Queries != 3 || os.ByVerdict[alive.Equivalent] != 3 {
		t.Fatalf("stats layer missed cache hits: %+v", os)
	}
	if cs.Misses != 1 || cs.Hits != 2 {
		t.Fatalf("cache layer: %+v", cs)
	}
}

// TestBaseHonorsContext: the real SAT-backed base returns a Canceled
// verdict under a pre-canceled context instead of solving.
func TestBaseHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	src, tgt := mustParse(t, srcText), mustParse(t, tgtText)
	r := Base().Verify(ctx, src, tgt, alive.DefaultOptions())
	if r.Reason() != alive.Canceled {
		t.Fatalf("pre-canceled base query: %+v", r)
	}
}
