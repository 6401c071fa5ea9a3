package server

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/vcache"
	"veriopt/internal/vstore"
)

// updateGolden rewrites the goldens under internal/metrics/testdata.
// They were written at PR 14's commit, by this test over PR 14's
// hand-written renderer; regenerating them is a wire-format change.
var updateGolden = flag.Bool("update", false, "rewrite the /metrics golden")

// fixedOracle reports fixed oracle and cache counters over a real
// (small) verdict store.
type fixedOracle struct{ store *vstore.Store }

func (fixedOracle) Verify(context.Context, *ir.Function, *ir.Function, alive.Options) alive.Result {
	return alive.Result{}
}

func (fixedOracle) OracleStats() (oracle.Stats, vcache.Stats) {
	return oracle.Stats{Queries: 12345678, ByVerdict: [4]uint64{7, 5, 3, 2}, ByReason: [6]uint64{alive.ConflictBudget: 1, alive.Canceled: 1}, Wall: 1500 * time.Millisecond},
		vcache.Stats{Queries: 40, Hits: 30, Misses: 9, Evictions: 4, Promotions: 3, Demotions: 4, StoreErrors: 1,
			BudgetExhausted: 2, SolverConflicts: 123456, Canceled: 1, Entries: 17, WallTime: 25 * time.Microsecond}
}

func (o fixedOracle) VStore() *vstore.Store { return o.store }

// TestMetricsGolden pins the server's whole /metrics section, byte
// for byte, over fixed inputs: family order, HELP/TYPE text, label
// order, integers as %d, floats as %g.
func TestMetricsGolden(t *testing.T) {
	st, err := vstore.Open(t.TempDir(), vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, k := range []vcache.Key{{Src: "a", Dst: "b"}, {Src: "c", Dst: "d"}, {Src: "a", Dst: "b"}} {
		if err := st.Put(k, alive.Result{Verdict: alive.Verdict(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Get(vcache.Key{Src: "a", Dst: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(vcache.Key{Src: "x", Dst: "y"}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{QueueSize: 32, Oracle: fixedOracle{st},
		ExtraMetrics: func(context.Context) string {
			return "# HELP extra_sample Appended verbatim.\n# TYPE extra_sample gauge\nextra_sample 1\n"
		}})
	s.metrics.observe("/v1/verify", 200, 1500*time.Millisecond)
	s.metrics.observe("/v1/verify", 200, 250*time.Microsecond)
	s.metrics.observe("/v1/verify", 429, 30*time.Microsecond)
	s.metrics.observe("/healthz", 200, time.Millisecond)
	s.metrics.observe("other", 404, 0)
	s.metrics.shed.Add(3)
	s.metrics.panics.Add(1)

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := rec.Body.String()

	const golden = "../metrics/testdata/server.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestObserveAllocatesNothing: observe runs once per request, on the
// request path (serve-warm is ~252 allocations per op under a 5 %
// bound); for an (endpoint, code) it has seen it must allocate nothing.
func TestObserveAllocatesNothing(t *testing.T) {
	m := newMetricsRegistry()
	m.observe("/v1/verify", 200, time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() { m.observe("/v1/verify", 200, time.Millisecond) }); n != 0 {
		t.Fatalf("metricsRegistry.observe allocates %v per call, want 0", n)
	}
}
