package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/server"
	"veriopt/internal/vcache"
)

const (
	srcAddZero = `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 0
  ret i32 %2
}
`
	tgtAddZero = `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`
)

func parsePair(t *testing.T) (*ir.Function, *ir.Function) {
	t.Helper()
	src, err := ir.ParseFunc(srcAddZero)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ir.ParseFunc(tgtAddZero)
	if err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

// fakeWorker is a scriptable stand-in for a worker replica: answers
// /v1/verify with a canned verdict, optionally delayed, gated,
// shedding, or cut off mid-body, counts hits, and reports loser
// cancellation.
type fakeWorker struct {
	ts *httptest.Server

	hits      atomic.Uint64
	onHit     func()       // when non-nil, called on every /v1/verify before anything else
	body      atomic.Value // the last /v1/verify request body, raw ([]byte)
	delay     atomic.Int64 // nanoseconds before answering
	shed      atomic.Bool  // answer 429 instead of a verdict
	truncate  atomic.Bool  // answer 200, promise a body, send half of it and half-close
	healthzOK atomic.Bool

	// gate, when non-nil, blocks every verify until closed (or the
	// request context dies).
	gate chan struct{}
	// canceled receives once per verify whose context died while
	// parked in the delay or gate — how a losing hedge announces it
	// was reaped.
	canceled chan struct{}
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	w := &fakeWorker{canceled: make(chan struct{}, 16)}
	w.healthzOK.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		if w.onHit != nil {
			w.onHit()
		}
		if w.truncate.Load() {
			io.Copy(io.Discard, r.Body)
			conn, buf, err := rw.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			defer conn.Close()
			buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"verdict\":\"equiv")
			buf.Flush()
			conn.(*net.TCPConn).CloseWrite()
			// Hold the read side until the client gives up on the body.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			io.Copy(io.Discard, conn)
			return
		}
		if w.shed.Load() {
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "queue full", http.StatusTooManyRequests)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.body.Store(body)
		var req server.VerifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if w.gate != nil {
			select {
			case <-w.gate:
			case <-r.Context().Done():
				w.canceled <- struct{}{}
				return
			}
		}
		if d := time.Duration(w.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				w.canceled <- struct{}{}
				return
			}
		}
		json.NewEncoder(rw).Encode(server.VerifyResponse{Verdict: alive.Equivalent.String()})
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if !w.healthzOK.Load() {
			http.Error(rw, "down", http.StatusInternalServerError)
			return
		}
		rw.Write([]byte(`{"ok":true}`))
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

// queryKey mirrors the coordinator's routing key so tests can predict
// ring placement.
func queryKey(t *testing.T, src, tgt *ir.Function, opts alive.Options) [sha256.Size]byte {
	t.Helper()
	return vcache.Key{Src: vcache.KeyOfFunc(src), Dst: vcache.KeyOfFunc(tgt), Opts: opts}.Fingerprint()
}

func mustNew(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// orderedWorkers returns the fake workers in the test query's ring
// preference order, so tests can script the primary vs the successor
// regardless of how URLs happened to hash.
func orderedWorkers(t *testing.T, c *Coordinator, workers []*fakeWorker, opts alive.Options) ([]*fakeWorker, []int) {
	t.Helper()
	src, tgt := parsePair(t)
	order := c.ring.Order(queryKey(t, src, tgt, opts))
	out := make([]*fakeWorker, len(order))
	for i, idx := range order {
		out[i] = workers[idx]
	}
	return out, order
}

// TestForwardRoundTrip: a query reaches its replica and the wire
// verdict comes back as an alive.Result.
func TestForwardRoundTrip(t *testing.T) {
	w := newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}})
	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, alive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != alive.Equivalent || res.Canceled {
		t.Fatalf("result = %+v, want equivalent", res)
	}
	if w.hits.Load() != 1 || c.reps[0].requests.Load() != 1 {
		t.Fatalf("hits = %d, requests = %d, want 1/1", w.hits.Load(), c.reps[0].requests.Load())
	}
}

// TestForwardedRequestBody pins the bytes a replica receives: the
// canonical texts, the three limits (zero ones omitted, the object
// always present) and no timeout_ms, in this order. Written against
// the coordinator's own copy of the contract, before it imported
// server.VerifyRequest.
func TestForwardedRequestBody(t *testing.T) {
	w := newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}})
	src, tgt := parsePair(t)
	srcJSON, _ := json.Marshal(ir.CanonicalText(src))
	tgtJSON, _ := json.Marshal(ir.CanonicalText(tgt))
	for _, tc := range []struct {
		opts    alive.Options
		options string
	}{
		{alive.Options{MaxPaths: 64, MaxSteps: 2000, SolverBudget: 30000, FreshSolver: true},
			`{"max_paths":64,"max_steps":2000,"solver_budget":30000}`},
		{alive.Options{MaxSteps: 7}, `{"max_steps":7}`},
		{alive.Options{}, `{}`},
	} {
		if _, err := c.VerifyRemote(context.Background(), src, tgt, tc.opts); err != nil {
			t.Fatal(err)
		}
		want := `{"src":` + string(srcJSON) + `,"tgt":` + string(tgtJSON) + `,"options":` + tc.options + `}`
		if got := string(w.body.Load().([]byte)); got != want {
			t.Errorf("opts %+v: body\n%s\nwant\n%s", tc.opts, got, want)
		}
	}
}

// TestSingleflightCoalesces: identical concurrent queries collapse to
// one worker round-trip; the rest ride the leader's answer. The
// coalescing is the stack's (vcache.Engine admits one leader per key
// digest, the digest the ring routes on); the coordinator under it has
// no singleflight of its own and needs none.
func TestSingleflightCoalesces(t *testing.T) {
	w := newFakeWorker(t)
	w.gate = make(chan struct{})
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}, DisableHedge: true})
	st := oracle.NewStack(oracle.Config{Remote: c})
	src, tgt := parsePair(t)
	opts := alive.DefaultOptions()

	const callers = 8
	results := make(chan alive.Result, callers)
	run := func() { results <- st.Verify(context.Background(), src, tgt, opts) }
	go run()
	// The leader owns the singleflight slot before its request leaves,
	// so once the worker has seen one hit every later caller coalesces.
	deadline := time.Now().Add(5 * time.Second)
	for w.hits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader request never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < callers; i++ {
		go run()
	}
	for st.Engine.Stats().Queries < callers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers arrived", st.Engine.Stats().Queries)
		}
		time.Sleep(time.Millisecond)
	}
	close(w.gate)
	for i := 0; i < callers; i++ {
		if res := <-results; res.Verdict != alive.Equivalent {
			t.Fatalf("caller %d got %+v", i, res)
		}
	}
	if w.hits.Load() != 1 {
		t.Fatalf("worker hits = %d, want 1 (singleflight)", w.hits.Load())
	}
	if cs := st.Engine.Stats(); cs.Misses != 1 || cs.Hits != callers-1 {
		t.Fatalf("cache stats = %+v, want 1 miss and %d hits", cs, callers-1)
	}
}

// TestFailoverReroutes: the key's primary replica dies mid-run; the
// coordinator demotes it, re-routes to the ring successor, and the
// query still succeeds — the zero-accepted-work-loss property the
// cluster smoke test exercises end to end.
func TestFailoverReroutes(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	rec := &bytes.Buffer{}
	c := mustNew(t, Config{
		Replicas:     []string{w0.ts.URL, w1.ts.URL},
		DisableHedge: true,
		Obs:          obs.New(rec),
	})
	opts := alive.DefaultOptions()
	ordered, order := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)
	primary, successor := ordered[0], ordered[1]
	primary.ts.Close() // connection refused from here on

	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != alive.Equivalent {
		t.Fatalf("verdict = %v, want equivalent", res.Verdict)
	}
	if c.reps[order[0]].healthy.Load() {
		t.Fatal("dead primary still marked healthy")
	}
	if got := c.reps[order[1]].retries.Load(); got != 1 {
		t.Fatalf("successor retries = %d, want 1", got)
	}
	if successor.hits.Load() != 1 || primary.hits.Load() != 0 {
		t.Fatalf("hits: primary %d, successor %d", primary.hits.Load(), successor.hits.Load())
	}
	if !strings.Contains(rec.String(), `"kind":"replica_down"`) {
		t.Fatalf("no replica_down event in trace: %s", rec.String())
	}
}

// TestShedReroutesWithoutDemotion: a 429 from a loaded replica
// re-routes the query but does not demote the replica — shedding
// means alive, and health probes must not be needed to recover from
// transient overload.
func TestShedReroutesWithoutDemotion(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	c := mustNew(t, Config{
		Replicas:     []string{w0.ts.URL, w1.ts.URL},
		DisableHedge: true,
	})
	opts := alive.DefaultOptions()
	ordered, order := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)
	ordered[0].shed.Store(true)

	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != alive.Equivalent {
		t.Fatalf("verdict = %v, want equivalent", res.Verdict)
	}
	if !c.reps[order[0]].healthy.Load() {
		t.Fatal("shedding replica was demoted; 429 must not mark a replica down")
	}
	if c.reps[order[0]].errors.Load() != 1 {
		t.Fatalf("shedder errors = %d, want 1", c.reps[order[0]].errors.Load())
	}
	if ordered[1].hits.Load() != 1 {
		t.Fatalf("successor hits = %d, want 1", ordered[1].hits.Load())
	}
}

// TestAllReplicasFailed: with the whole fleet unreachable the
// coordinator reports an error — the signal oracle.Stack.Verify uses
// to fall back to local verification.
func TestAllReplicasFailed(t *testing.T) {
	w := newFakeWorker(t)
	w.ts.Close()
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}, DisableHedge: true})
	src, tgt := parsePair(t)
	_, err := c.VerifyRemote(context.Background(), src, tgt, alive.DefaultOptions())
	if err == nil {
		t.Fatal("expected an error with every replica down")
	}
}

// TestHedgeCancelsLoser: a slow primary is hedged to the ring
// successor after the fixed delay; the hedge answers, wins, and the
// primary's in-flight request is canceled — the loser signals its
// context death, and the -race run flags any leaked writer.
func TestHedgeCancelsLoser(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	c := mustNew(t, Config{
		Replicas:   []string{w0.ts.URL, w1.ts.URL},
		HedgeAfter: 5 * time.Millisecond,
	})
	opts := alive.DefaultOptions()
	ordered, order := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)
	primary, successor := ordered[0], ordered[1]
	primary.delay.Store(int64(10 * time.Second))

	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != alive.Equivalent {
		t.Fatalf("verdict = %v, want equivalent", res.Verdict)
	}
	if got := c.reps[order[1]].hedges.Load(); got != 1 {
		t.Fatalf("successor hedges = %d, want 1", got)
	}
	if got := c.reps[order[1]].hedgeWins.Load(); got != 1 {
		t.Fatalf("successor hedge wins = %d, want 1", got)
	}
	if successor.hits.Load() != 1 {
		t.Fatalf("successor hits = %d, want 1", successor.hits.Load())
	}
	// The losing primary must observe cancellation promptly — its
	// handler signals when its request context dies.
	select {
	case <-primary.canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing primary attempt was never canceled")
	}
}

// TestHedgeDisabled: with hedging off, a slow primary is simply
// waited on; the successor never sees traffic.
func TestHedgeDisabled(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	c := mustNew(t, Config{
		Replicas:     []string{w0.ts.URL, w1.ts.URL},
		DisableHedge: true,
	})
	opts := alive.DefaultOptions()
	ordered, _ := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)
	ordered[0].delay.Store(int64(50 * time.Millisecond))

	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
	if err != nil || res.Verdict != alive.Equivalent {
		t.Fatalf("result = %+v err = %v", res, err)
	}
	if ordered[1].hits.Load() != 0 {
		t.Fatal("successor saw traffic with hedging disabled")
	}
}

// TestHedgeDelayAdapts: the adaptive delay uses the floor until
// enough samples accumulate, then tracks min(p99, 4*p50).
func TestHedgeDelayAdapts(t *testing.T) {
	c := mustNew(t, Config{Replicas: []string{"http://unused:1"}})
	if got := c.hedgeDelay(); got != hedgeFloor {
		t.Fatalf("cold hedge delay = %v, want floor %v", got, hedgeFloor)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		c.sampler.add(10 * time.Millisecond)
	}
	// p50 = p99 = 10ms: min(10ms, 40ms) = 10ms.
	if got := c.hedgeDelay(); got != 10*time.Millisecond {
		t.Fatalf("hedge delay = %v, want 10ms", got)
	}
	// A heavy tail drags p99 out to 1s; the 4*p50 clamp holds the
	// delay near the healthy latency instead.
	for i := 0; i < 8; i++ {
		c.sampler.add(time.Second)
	}
	if got := c.hedgeDelay(); got != 40*time.Millisecond {
		t.Fatalf("hedge delay with heavy tail = %v, want 40ms (4*p50 clamp)", got)
	}
	// A fixed override wins unconditionally.
	c.cfg.HedgeAfter = 7 * time.Millisecond
	if got := c.hedgeDelay(); got != 7*time.Millisecond {
		t.Fatalf("fixed hedge delay = %v, want 7ms", got)
	}
}

// TestProbeHeals: a demoted replica is re-promoted once its /healthz
// answers again, without any query traffic.
func TestProbeHeals(t *testing.T) {
	w := newFakeWorker(t)
	w.healthzOK.Store(false)
	rec := &bytes.Buffer{}
	c := mustNew(t, Config{
		Replicas:      []string{w.ts.URL},
		ProbeInterval: 5 * time.Millisecond,
		Obs:           obs.New(rec),
	})
	c.markDown(c.reps[0], "test demotion")
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	defer func() { cancel(); c.Wait() }()

	time.Sleep(25 * time.Millisecond)
	if c.reps[0].healthy.Load() {
		t.Fatal("replica healed while /healthz still failing")
	}
	w.healthzOK.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for !c.reps[0].healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober never healed the replica")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	c.Wait()
	if !strings.Contains(rec.String(), `"kind":"replica_up"`) {
		t.Fatalf("no replica_up event in trace: %s", rec.String())
	}
}

// TestMetricsMergesWorkerCounters: the coordinator's metrics section
// sums worker oracle/vcache counters and queue depth across the
// fleet and exposes its own per-replica families.
func TestMetricsMergesWorkerCounters(t *testing.T) {
	mkWorker := func(queries, depth int) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			body := "# HELP veriopt_oracle_total x\n" +
				"# TYPE veriopt_oracle_total counter\n" +
				"veriopt_oracle_total{counter=\"queries\"} " + strconv.Itoa(queries) + "\n" +
				"veriopt_vcache_total{counter=\"hits\"} 3\n" +
				"veriopt_queue_depth " + strconv.Itoa(depth) + "\n"
			rw.Write([]byte(body))
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	w0, w1 := mkWorker(5, 2), mkWorker(7, 4)
	c := mustNew(t, Config{Replicas: []string{w0.URL, w1.URL}})
	text := c.MetricsText(context.Background())
	for _, want := range []string{
		"veriopt_cluster_replicas 2",
		"veriopt_cluster_replicas_healthy 2",
		"veriopt_cluster_workers_scraped 2",
		`veriopt_cluster_oracle_total{counter="queries"} 12`,
		`veriopt_cluster_vcache_total{counter="hits"} 6`,
		"veriopt_cluster_workers_queue_depth 6",
		`veriopt_cluster_requests_total{replica="` + w0.URL + `"} 0`,
		`veriopt_cluster_replica_up{replica="` + w1.URL + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestStackComposition: the coordinator composes under the full
// oracle stack via Config.Remote — a memoized verdict never touches
// the network, and identical stack queries hit the worker once.
func TestStackComposition(t *testing.T) {
	w := newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}, DisableHedge: true})
	var baseRuns atomic.Uint64
	stack := oracle.NewStack(oracle.Config{
		Remote: c,
		Base: oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			baseRuns.Add(1)
			return alive.Result{Verdict: alive.Inconclusive}
		}),
	})
	src, tgt := parsePair(t)
	for i := 0; i < 3; i++ {
		res := stack.Verify(context.Background(), src, tgt, alive.DefaultOptions())
		if res.Verdict != alive.Equivalent {
			t.Fatalf("query %d verdict = %v", i, res.Verdict)
		}
	}
	if w.hits.Load() != 1 {
		t.Fatalf("worker hits = %d, want 1 (cache should absorb repeats)", w.hits.Load())
	}
	if baseRuns.Load() != 0 {
		t.Fatalf("local base ran %d times; remote answers must preempt it", baseRuns.Load())
	}
}
