package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
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
// shedding, or cut off mid-body, counts hits, and reports a request
// whose context died under it.
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
	// parked in the delay or gate — how a test sees that the caller's
	// cancellation reached the replica.
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
// replica placement.
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

// orderedWorkers returns the fake workers in the test query's replica
// preference order, so tests can script the primary vs the successor
// regardless of how URLs happened to hash.
func orderedWorkers(t *testing.T, c *Coordinator, workers []*fakeWorker, opts alive.Options) ([]*fakeWorker, []int) {
	t.Helper()
	src, tgt := parsePair(t)
	order := c.order(queryKey(t, src, tgt, opts))
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
	if res.Verdict != alive.Equivalent {
		t.Fatalf("result = %+v, want equivalent", res)
	}
	if w.hits.Load() != 1 || c.reps[0].requests.Load() != 1 {
		t.Fatalf("hits = %d, requests = %d, want 1/1", w.hits.Load(), c.reps[0].requests.Load())
	}
}

// TestReasonCrossesTheWire: an Inconclusive verdict a replica answers
// reaches the coordinator's caller for the same reason, read off the
// diag the replica sends — one canceled, one out of conflict budget.
func TestReasonCrossesTheWire(t *testing.T) {
	mul := func(text string) *ir.Function {
		f, err := ir.ParseFunc(text)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	starved := alive.DefaultOptions()
	starved.SolverBudget = 1
	budget := alive.VerifyFuncs(
		mul("define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %s = add i6 %y, %z\n  %r = mul i6 %x, %s\n  ret i6 %r\n}\n"),
		mul("define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %a = mul i6 %x, %y\n  %b = mul i6 %x, %z\n  %r = add i6 %a, %b\n  ret i6 %r\n}\n"),
		starved)
	if budget.Reason() != alive.ConflictBudget {
		t.Fatalf("x*(y+z) against x*y+x*z in 1 conflict: reason %q (%s)", budget.Reason(), budget.Diag)
	}
	src, tgt := parsePair(t)
	for _, want := range []alive.Result{alive.CanceledResult(context.DeadlineExceeded), budget} {
		replica := server.New(server.Config{Workers: 1, Oracle: oracle.Func(func(context.Context, *ir.Function, *ir.Function, alive.Options) alive.Result {
			return want
		})})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- replica.Run(ctx, ln) }()
		c := mustNew(t, Config{Replicas: []string{"http://" + ln.Addr().String()}})
		res, err := c.VerifyRemote(context.Background(), src, tgt, alive.DefaultOptions())
		cancel()
		if err := <-errc; err != nil {
			t.Fatalf("replica Run: %v", err)
		}
		if err != nil || res.Reason() != want.Reason() || res.Diag != want.Diag {
			t.Errorf("replica answered %v, reason %q (%s); the caller got %v, reason %q (%s), error %v",
				want.Verdict, want.Reason(), want.Diag, res.Verdict, res.Reason(), res.Diag, err)
		}
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
		{alive.Options{MaxPaths: 64, MaxSteps: 2000, SolverBudget: 30000},
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
// digest, the digest the replica order routes on); the coordinator
// under it has no singleflight of its own and needs none.
func TestSingleflightCoalesces(t *testing.T) {
	w := newFakeWorker(t)
	w.gate = make(chan struct{})
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}})
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
// coordinator demotes it, re-routes to the key's next replica, and the
// query still succeeds — the zero-accepted-work-loss property the
// cluster smoke test exercises end to end.
func TestFailoverReroutes(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	rec := &bytes.Buffer{}
	c := mustNew(t, Config{
		Replicas: []string{w0.ts.URL, w1.ts.URL},
		Obs:      obs.New(rec),
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
	c := mustNew(t, Config{Replicas: []string{w0.ts.URL, w1.ts.URL}})
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
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}})
	src, tgt := parsePair(t)
	_, err := c.VerifyRemote(context.Background(), src, tgt, alive.DefaultOptions())
	if err == nil {
		t.Fatal("expected an error with every replica down")
	}
}

// TestSlowPrimaryIsWaitedOn: a slow primary is simply waited on; the
// successor never sees traffic.
func TestSlowPrimaryIsWaitedOn(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w0.ts.URL, w1.ts.URL}})
	opts := alive.DefaultOptions()
	ordered, _ := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)
	ordered[0].delay.Store(int64(50 * time.Millisecond))

	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
	if err != nil || res.Verdict != alive.Equivalent {
		t.Fatalf("result = %+v err = %v", res, err)
	}
	if ordered[1].hits.Load() != 0 {
		t.Fatal("successor saw traffic while the primary was only slow")
	}
}

// TestCallerDeadlineIsNotAReplicaFailure: a caller whose deadline ends
// while its replica is still working gets a canceled result and no
// error (so the stack does not verify locally what nobody waits for),
// the replica's request is canceled with it, and the replica is neither
// charged an error nor demoted nor routed around.
func TestCallerDeadlineIsNotAReplicaFailure(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	w0.gate, w1.gate = make(chan struct{}), make(chan struct{})
	c := mustNew(t, Config{Replicas: []string{w0.ts.URL, w1.ts.URL}})
	opts := alive.DefaultOptions()
	ordered, order := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(ctx, src, tgt, opts)
	if err != nil || res.Reason() != alive.Canceled {
		t.Fatalf("result = %+v err = %v, want a canceled result and no error", res, err)
	}
	select {
	case <-ordered[0].canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the replica's request outlived its caller")
	}
	primary := c.reps[order[0]]
	if primary.requests.Load() != 1 || primary.errors.Load() != 0 || !primary.healthy.Load() {
		t.Fatalf("primary: requests %d, errors %d, healthy %v; want 1, 0, true",
			primary.requests.Load(), primary.errors.Load(), primary.healthy.Load())
	}
	if ordered[1].hits.Load() != 0 || c.reps[order[1]].requests.Load() != 0 {
		t.Fatal("the caller's deadline re-routed its query to the successor")
	}
}

// TestTruncatedBodyReroutes: a replica that answers 200, sends half a
// body and half-closes is routed around — the successor answers — and
// is charged an error but not demoted: it accepted the connection and
// spoke HTTP, so the next query may try it again.
func TestTruncatedBodyReroutes(t *testing.T) {
	w0, w1 := newFakeWorker(t), newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w0.ts.URL, w1.ts.URL}})
	opts := alive.DefaultOptions()
	ordered, order := orderedWorkers(t, c, []*fakeWorker{w0, w1}, opts)
	ordered[0].truncate.Store(true)

	src, tgt := parsePair(t)
	res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
	if err != nil || res.Verdict != alive.Equivalent {
		t.Fatalf("result = %+v err = %v, want equivalent from the successor", res, err)
	}
	if ordered[0].hits.Load() != 1 || ordered[1].hits.Load() != 1 {
		t.Fatalf("hits: truncating primary %d, successor %d; want 1 and 1", ordered[0].hits.Load(), ordered[1].hits.Load())
	}
	if rep := c.reps[order[0]]; rep.errors.Load() != 1 || !rep.healthy.Load() {
		t.Fatalf("truncating primary: errors %d, healthy %v; want 1, true", rep.errors.Load(), rep.healthy.Load())
	}
	if got := c.reps[order[1]].retries.Load(); got != 1 {
		t.Fatalf("successor retries = %d, want 1", got)
	}
}

// TestEachQueryReachesOneReplica: under the zero Config, 32 distinct
// concurrent queries through two replicas that each take 40 ms reach a
// replica once each, the one that owns the key — a slow answer is not
// a reason to ask a second replica for it.
func TestEachQueryReachesOneReplica(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t), newFakeWorker(t)}
	for _, w := range workers {
		w.delay.Store(int64(40 * time.Millisecond))
	}
	c := mustNew(t, Config{Replicas: []string{workers[0].ts.URL, workers[1].ts.URL}})
	src, tgt := parsePair(t)

	const queries = 32
	var owned [2]uint64
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		// A distinct step limit is a distinct key.
		opts := alive.Options{MaxSteps: 1000 + q}
		owned[c.order(queryKey(t, src, tgt, opts))[0]]++
		go func() {
			res, err := c.VerifyRemote(context.Background(), src, tgt, opts)
			if err == nil && res.Verdict != alive.Equivalent {
				err = fmt.Errorf("verdict %v", res.Verdict)
			}
			errs <- err
		}()
	}
	for q := 0; q < queries; q++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if got := w.hits.Load(); got != owned[i] {
			t.Errorf("worker %d: %d hits, owns %d of the %d keys", i, got, owned[i], queries)
		}
		if got := c.reps[i].requests.Load(); got != owned[i] {
			t.Errorf("replica %d: %d attempts, owns %d of the %d keys", i, got, owned[i], queries)
		}
	}
}

// TestProbeHeals: a demoted replica is re-promoted once its /healthz
// answers again, without any query traffic.
func TestProbeHeals(t *testing.T) {
	w := newFakeWorker(t)
	w.healthzOK.Store(false)
	rec := &bytes.Buffer{}
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}, Obs: obs.New(rec)})
	c.probeInterval = 5 * time.Millisecond
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

// TestStackComposition: the coordinator composes under the full
// oracle stack via Config.Remote — a memoized verdict never touches
// the network, and identical stack queries hit the worker once.
func TestStackComposition(t *testing.T) {
	w := newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}})
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

// TestNilContextVerifies: a stack over the coordinator answers a nil
// ctx as it answers context.Background(), the way oracle.Stack.Verify
// and the local verifier take one; the coordinator must not call a
// method on the nil ctx after its attempt.
func TestNilContextVerifies(t *testing.T) {
	w := newFakeWorker(t)
	c := mustNew(t, Config{Replicas: []string{w.ts.URL}})
	src, _ := parsePair(t)
	res := oracle.NewStack(oracle.Config{Remote: c}).Verify(nil, src, src, alive.DefaultOptions())
	if res.Verdict != alive.Equivalent || w.hits.Load() != 1 {
		t.Fatalf("result = %+v, worker hits = %d; want equivalent from the worker", res, w.hits.Load())
	}
}
