package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
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
	return oracle.Stats{Wall: 1500 * time.Millisecond},
		vcache.Stats{Queries: 40, ByVerdict: [4]uint64{7, 5, 3, 2}, ByReason: [6]uint64{alive.ConflictBudget: 1, alive.Canceled: 1},
			Hits: 30, Misses: 9, Evictions: 4, Promotions: 3, Demotions: 4, StoreErrors: 1,
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
// request path (serve-warm is about 103 allocations per op under a 5 %
// bound); for an (endpoint, code) it has seen it must allocate nothing.
func TestObserveAllocatesNothing(t *testing.T) {
	m := newMetricsRegistry()
	m.observe("/v1/verify", 200, time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() { m.observe("/v1/verify", 200, time.Millisecond) }); n != 0 {
		t.Fatalf("metricsRegistry.observe allocates %v per call, want 0", n)
	}
}

// warmVerify serves one /v1/verify of srcAddZero against tgtAddZero
// through the instrumented handler, in process, on a stack that already
// holds the pair's verdict: what a serve-warm op costs the server,
// without the network and the client. The request and the writer are
// reused, so what a run allocates is the handler's.
func warmVerify(tb testing.TB) func() {
	tb.Helper()
	stack := oracle.NewStack(oracle.Config{})
	src, err := ir.ParseFunc(srcAddZero)
	if err != nil {
		tb.Fatal(err)
	}
	tgt, err := ir.ParseFunc(tgtAddZero)
	if err != nil {
		tb.Fatal(err)
	}
	if r := stack.Verify(context.Background(), src, tgt, alive.DefaultOptions()); r.Verdict != alive.Equivalent {
		tb.Fatalf("warming the stack: %s", r.Verdict)
	}
	s, _, cancel, errc := start(tb, Config{Workers: 1, Oracle: stack})
	tb.Cleanup(func() { cancel(); <-errc })
	blob, err := json.Marshal(VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if err != nil {
		tb.Fatal(err)
	}
	var rd bytes.Reader
	body := io.NopCloser(&rd)
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", nil)
	req.ContentLength = int64(len(blob))
	w := &sink{h: make(http.Header)}
	serve := func() {
		rd.Reset(blob)
		req.Body = body
		s.handler.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || !bytes.Contains(w.last, []byte(`"verdict":"equivalent"`)) {
		tb.Fatalf("warm verify: status %d, body %s", w.code, w.last)
	}
	return serve
}

// sink is a ResponseWriter that keeps the status and the last write.
type sink struct {
	h    http.Header
	code int
	last []byte
}

func (w *sink) Header() http.Header { return w.h }

func (w *sink) Write(p []byte) (int, error) {
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

func (w *sink) WriteHeader(code int) { w.code = code }

// TestVerifyWarmAllocCeiling holds what one warm /v1/verify allocates in
// the server: decoding the body, both parses, the verdict cache's probe,
// the response and the request accounting (warmVerify; no network, no
// client). It read 47 with a job queue drained by a worker pool, and
// 35 on a counting semaphore: the request runs on its own goroutine,
// the wait is written on the middleware's recorder, the body is read
// once. It read 33 before both texts parsed into a spare pair of
// ir.Copiers, the memory of the request before, and reads 16 since (17
// were the two parses' functions and slabs). It read 16 (17 under
// -race, where the race detector drops some of what encoding/json's
// sync.Pool holds) before the body, the request and the response lived
// in that set and were read and written by hand (wire.go), and reads
// 6 since, under -race too: the two texts, the two canonical keys'
// numbering, the body's size limit and the middleware's recorder. The
// ceiling is one above that, as the root package's ceilings are where
// 5 % rounds to nothing.
func TestVerifyWarmAllocCeiling(t *testing.T) {
	const ceiling = 7
	serve := warmVerify(t)
	if n := testing.AllocsPerRun(200, serve); n > ceiling {
		t.Fatalf("one warm /v1/verify allocates %.1f, ceiling %d", n, ceiling)
	}
}

// BenchmarkVerifyWarmHandler is TestVerifyWarmAllocCeiling's request
// timed: make bench-ir runs it with -benchmem.
func BenchmarkVerifyWarmHandler(b *testing.B) {
	serve := warmVerify(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
}
