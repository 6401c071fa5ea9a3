package oracle

import (
	"context"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/vcache"
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
	_, cs := st.OracleStats()
	if cs.Queries != 2 || cs.ByVerdict[alive.Equivalent] != 1 || cs.ByVerdict[alive.SemanticError] != 1 || cs.Misses != 2 {
		t.Fatalf("cache stats: %+v", cs)
	}
}

// TestStatsOutsideCache: the engine's verdict counts cover every query
// including cache hits, while its misses count only live runs.
func TestStatsOutsideCache(t *testing.T) {
	var base atomic.Int64
	st := NewStack(Config{Base: countingBase(&base)})
	src, tgt := mustParse(t, srcText), mustParse(t, tgtText)
	for i := 0; i < 3; i++ {
		st.Verify(bg, src, tgt, alive.DefaultOptions())
	}
	_, cs := st.OracleStats()
	if cs.Queries != 3 || cs.ByVerdict[alive.Equivalent] != 3 {
		t.Fatalf("verdict counts missed cache hits: %+v", cs)
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

// recordingBacking is a vcache.Backing that holds nothing and records
// the key of every Get and Put.
type recordingBacking struct {
	gets, puts []vcache.Key
}

func (b *recordingBacking) Get(k vcache.Key) (alive.Result, bool, error) {
	b.gets = append(b.gets, k)
	return alive.Result{}, false, nil
}

func (b *recordingBacking) Put(k vcache.Key, _ alive.Result) error {
	b.puts = append(b.puts, k)
	return nil
}

// TestBackingSeesFullKeys: Verify prints both keys on its stack, and the
// engine spells them out only for the backing. A miss hands the
// backing's Get and Put one and the same Key, the one vcache.KeyOfFunc
// spells for each side (a name with whitespace and non-ASCII runes
// included); a hot-tier hit asks the backing nothing.
func TestBackingSeesFullKeys(t *testing.T) {
	var base atomic.Int64
	backing := &recordingBacking{}
	st := NewStack(Config{Base: countingBase(&base), Backing: backing})
	src, tgt, bad := mustParse(t, srcText), mustParse(t, tgtText), mustParse(t, badText)
	odd := mustParse(t, "define i32 @\u00e9t\u00e9(i32 noundef %x\u00a0y) {\n  ret i32 %x\u00a0y\n}")
	opts := alive.DefaultOptions()
	for i, pair := range [][2]*ir.Function{{src, tgt}, {src, bad}, {odd, src}} {
		want := vcache.Key{Src: vcache.KeyOfFunc(pair[0]), Dst: vcache.KeyOfFunc(pair[1]), Opts: opts}
		for range 2 { // a miss, then a hot-tier hit
			st.Verify(bg, pair[0], pair[1], opts)
			if len(backing.gets) != i+1 || len(backing.puts) != i+1 {
				t.Fatalf("pair %d: the backing was asked %d Gets and %d Puts, want %d of each", i, len(backing.gets), len(backing.puts), i+1)
			}
		}
		if got := backing.gets[i]; got != want {
			t.Errorf("pair %d: Get was handed %+v, want %+v", i, got, want)
		}
		if got := backing.puts[i]; got != want {
			t.Errorf("pair %d: Put was handed %+v, want %+v", i, got, want)
		}
	}
	if n := base.Load(); n != 3 {
		t.Errorf("the base ran %d times, want once per pair", n)
	}
}
