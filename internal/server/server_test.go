package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
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

// start runs a server on a loopback listener and returns its base
// URL, a cancel that begins the drain, and the channel Run's error
// lands on.
func start(t testing.TB, cfg Config) (*Server, string, context.CancelFunc, chan error) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx, ln) }()
	return s, "http://" + ln.Addr().String(), cancel, errc
}

// drain cancels the server and requires a clean Run return.
func drain(t *testing.T, cancel context.CancelFunc, errc chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run returned %v after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain")
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func TestVerifyEndpoint(t *testing.T) {
	_, base, cancel, errc := start(t, Config{Oracle: oracle.NewStack(oracle.Config{})})
	client := &http.Client{}

	code, body, _ := postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict != "equivalent" || vr.Reason != "" {
		t.Fatalf("verdict = %+v, want equivalent", vr)
	}

	// A broken target is a model failure: 200 with a syntax_error
	// verdict, mirroring the batch pipeline's contract.
	code, body, _ = postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: "not ir"})
	if code != http.StatusOK {
		t.Fatalf("broken target status = %d", code)
	}
	vr = VerifyResponse{}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict != "syntax_error" {
		t.Fatalf("broken target verdict = %q, want syntax_error", vr.Verdict)
	}

	// A broken source is harness misuse: 400.
	code, _, _ = postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: "not ir", Tgt: tgtAddZero})
	if code != http.StatusBadRequest {
		t.Fatalf("broken source status = %d, want 400", code)
	}

	drain(t, cancel, errc)
}

// TestDeadlinePropagation: a request's timeout_ms must become context
// cancellation inside the oracle, yielding a prompt canceled verdict
// instead of a hung request.
func TestDeadlinePropagation(t *testing.T) {
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		<-ctx.Done()
		return alive.CanceledResult(ctx.Err())
	})
	_, base, cancel, errc := start(t, Config{Workers: 2, Oracle: blocking})
	client := &http.Client{}

	t0 := time.Now()
	code, body, _ := postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero, TimeoutMs: 100})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Reason != "canceled" || vr.Verdict != "inconclusive" {
		t.Fatalf("response = %+v, want canceled inconclusive", vr)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("deadline did not propagate: request took %v", elapsed)
	}
	drain(t, cancel, errc)
}

// TestShedWith429UnderFullQueue: with one worker busy and the
// one-slot queue occupied, the next request must be shed immediately
// with 429 + Retry-After — not queued into an unbounded backlog.
func TestShedWith429UnderFullQueue(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return alive.Result{Verdict: alive.Equivalent}
		case <-ctx.Done():
			return alive.CanceledResult(ctx.Err())
		}
	})
	s, base, cancel, errc := start(t, Config{Workers: 1, QueueSize: 1, Oracle: blocking})
	client := &http.Client{}

	type reply struct {
		code int
	}
	fire := func(ch chan reply) {
		code, _, _ := postJSON(t, client, base+"/v1/verify",
			VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
		ch <- reply{code}
	}
	// First request occupies the single worker...
	r1 := make(chan reply, 1)
	go fire(r1)
	<-started
	// ...second fills the single queue slot...
	r2 := make(chan reply, 1)
	go fire(r2)
	deadline := time.Now().Add(5 * time.Second)
	for s.queueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// ...so the third must be shed.
	code, body, hdr := postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	for _, ch := range []chan reply{r1, r2} {
		select {
		case r := <-ch:
			if r.code != http.StatusOK {
				t.Fatalf("queued request status = %d", r.code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued request never completed")
		}
	}
	// The shed shows up on /metrics.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(blob), "veriopt_requests_shed_total 1") {
		t.Fatalf("metrics missing shed counter:\n%s", blob)
	}
	drain(t, cancel, errc)
}

// TestGracefulDrainNoGoroutineLeak: after cancel, Run must finish the
// in-flight request, stop the workers, and leave no goroutine behind.
func TestGracefulDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	_, base, cancel, errc := start(t, Config{Workers: 2, Oracle: oracle.NewStack(oracle.Config{})})
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	code, _, _ := postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	drain(t, cancel, errc)
	tr.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after drain", before, n)
	}
}

// TestDrainFinishesInFlight: a request already executing when the
// drain begins must still complete with 200.
func TestDrainFinishesInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return alive.Result{Verdict: alive.Equivalent}
	})
	_, base, cancel, errc := start(t, Config{Workers: 1, Oracle: blocking})
	client := &http.Client{}

	done := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, client, base+"/v1/verify",
			VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
		done <- code
	}()
	<-started
	cancel() // begin the drain with the request mid-verification
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("in-flight request status = %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request dropped during drain")
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, base, cancel, errc := start(t, Config{Oracle: oracle.NewStack(oracle.Config{})})
	client := &http.Client{}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	// Two identical verifies: the second must be a cache hit, visible
	// in the scraped oracle/vcache sections.
	for i := 0; i < 2; i++ {
		if code, body, _ := postJSON(t, client, base+"/v1/verify",
			VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero}); code != http.StatusOK {
			t.Fatalf("verify status = %d, body %s", code, body)
		}
	}
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(blob)
	for _, want := range []string{
		`veriopt_requests_total{endpoint="/v1/verify",code="200"} 2`,
		`veriopt_vcache_total{counter="hits"} 1`,
		`veriopt_vcache_total{counter="misses"} 1`,
		"veriopt_vcache_hit_rate 0.5",
		"veriopt_queue_depth 0",
		"veriopt_queue_capacity 256",
		`veriopt_oracle_total{counter="equivalent"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	drain(t, cancel, errc)
}

// TestOptimizeKeepsInputWithoutProof: /v1/optimize is oracle.Accept per
// function. Anything short of a proof answers 200 with the input module
// unchanged, used_fallback set and the verdict that says why; a model
// output that does not parse reports the parser's own diagnostic.
func TestOptimizeKeepsInputWithoutProof(t *testing.T) {
	refuse := oracle.Func(func(context.Context, *ir.Function, *ir.Function, alive.Options) alive.Result {
		return alive.Result{Verdict: alive.SemanticError, Diag: "ERROR: Value mismatch"}
	})
	garbler := policy.New(policy.CapQwen3B, 1)
	for a, r := range garbler.Rules {
		if r.Name == "corrupt-bad-mnemonic" {
			garbler.B[a] = 1e6
		}
	}
	for _, tc := range []struct {
		name          string
		cfg           Config
		verdict, diag string
	}{
		{"refuted", Config{Oracle: refuse}, "semantic_error", "ERROR: Value mismatch"},
		{"unparsable", Config{Oracle: refuse, Model: garbler}, "syntax_error",
			alive.DiagParsePrefix + `line 2: unknown instruction "faddq"`},
	} {
		_, base, cancel, errc := start(t, tc.cfg)
		code, body, _ := postJSON(t, &http.Client{}, base+"/v1/optimize", optimizeRequest{IR: srcAddZero})
		var or optimizeResponse
		if err := json.Unmarshal(body, &or); err != nil || code != http.StatusOK || len(or.Functions) != 1 {
			t.Fatalf("%s: status %d, err %v, body %s", tc.name, code, err, body)
		}
		f := or.Functions[0]
		if !f.UsedFallback || f.Verdict != tc.verdict || f.Diag != tc.diag || f.Out != f.Base || f.Speedup != 1 {
			t.Errorf("%s: function result = %+v", tc.name, f)
		}
		if or.Module != srcAddZero {
			t.Errorf("%s: module changed without a proof:\n%s", tc.name, or.Module)
		}
		drain(t, cancel, errc)
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	_, base, cancel, errc := start(t, Config{Oracle: oracle.NewStack(oracle.Config{})})
	client := &http.Client{}

	code, body, _ := postJSON(t, client, base+"/v1/optimize", optimizeRequest{IR: srcAddZero})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var or optimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if len(or.Functions) != 1 {
		t.Fatalf("functions = %d, want 1", len(or.Functions))
	}
	f := or.Functions[0]
	// instcombine folds add-zero away; the verifier must have proven
	// it, so the fallback is not used and the module shrinks.
	if f.UsedFallback || f.Verdict != "equivalent" {
		t.Fatalf("function result = %+v, want verified non-fallback", f)
	}
	if f.Out.ICount >= f.Base.ICount {
		t.Fatalf("optimize did not shrink: base %+v out %+v", f.Base, f.Out)
	}
	if !strings.Contains(or.Module, "define i32 @f") {
		t.Fatalf("rewritten module lost the function:\n%s", or.Module)
	}

	// A module that fails to parse is a 400.
	code, _, _ = postJSON(t, client, base+"/v1/optimize", optimizeRequest{IR: "not ir"})
	if code != http.StatusBadRequest {
		t.Fatalf("broken module status = %d, want 400", code)
	}
	drain(t, cancel, errc)
}

func TestEvaluateEndpoint(t *testing.T) {
	_, base, cancel, errc := start(t, Config{Oracle: oracle.NewStack(oracle.Config{})})
	client := &http.Client{}

	code, body, _ := postJSON(t, client, base+"/v1/evaluate",
		evaluateRequest{Seed: 3, N: 8})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var er evaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Canceled || er.Skipped != 0 {
		t.Fatalf("complete run reported partial: %+v", er)
	}
	if er.Total != 8 {
		t.Fatalf("total = %d, want 8", er.Total)
	}
	if sum := er.Correct + er.Semantic + er.Syntax + er.Inconclusive; sum != er.Total {
		t.Fatalf("buckets sum to %d, total %d", sum, er.Total)
	}

	// A tight deadline yields a partial report over the evaluated
	// prefix: skipped samples excluded from the fractions, HTTP still
	// 200 (the partial report is the answer, not an error).
	code, body, _ = postJSON(t, client, base+"/v1/evaluate",
		evaluateRequest{Seed: 3, N: 8, TimeoutMs: 1})
	if code != http.StatusOK {
		t.Fatalf("partial status = %d, body %s", code, body)
	}
	er = evaluateResponse{}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Total+er.Skipped != 8 {
		t.Fatalf("partial total %d + skipped %d != 8", er.Total, er.Skipped)
	}

	// Out-of-range n is rejected before the queue.
	code, _, _ = postJSON(t, client, base+"/v1/evaluate", evaluateRequest{Seed: 3, N: 0})
	if code != http.StatusBadRequest {
		t.Fatalf("n=0 status = %d, want 400", code)
	}
	drain(t, cancel, errc)
}

// TestTimeoutClampAndNegativeReject pins the honest-deadline
// semantics: a huge client timeout_ms cannot defeat the operator's
// MaxTimeout ceiling, and a negative one is a 400 client error rather
// than a silent no-op.
func TestTimeoutClampAndNegativeReject(t *testing.T) {
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		<-ctx.Done()
		return alive.CanceledResult(ctx.Err())
	})
	const maxT = 150 * time.Millisecond
	_, base, cancel, errc := start(t, Config{Workers: 2, Oracle: blocking, MaxTimeout: maxT})
	client := &http.Client{Timeout: 10 * time.Second}

	// Every client deadline past MaxTimeout runs for exactly MaxTimeout:
	// an hour, and the two that wrap when multiplied by time.Millisecond
	// (to about -2.6 million hours, which once meant no deadline at all,
	// and to 448µs).
	for _, ms := range []int{3600_000, 9223372036855, 18446744073710} {
		t0 := time.Now()
		code, body, _ := postJSON(t, client, base+"/v1/verify",
			VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero, TimeoutMs: ms})
		elapsed := time.Since(t0)
		if code != http.StatusOK {
			t.Fatalf("timeout_ms %d: status = %d, body %s", ms, code, body)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if vr.Reason != "canceled" {
			t.Fatalf("timeout_ms %d: response = %+v, want canceled (clamped deadline must trip)", ms, vr)
		}
		if elapsed < maxT {
			t.Fatalf("timeout_ms %d: canceled after %v, before MaxTimeout %v", ms, elapsed, maxT)
		}
	}

	// Negative timeout_ms is rejected before queueing.
	code, body, _ := postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero, TimeoutMs: -5})
	if code != http.StatusBadRequest {
		t.Fatalf("negative timeout status = %d, body %s, want 400", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "timeout_ms") {
		t.Fatalf("error %q does not name timeout_ms", er.Error)
	}
	drain(t, cancel, errc)
}

// TestDefaultTimeoutAlsoClamped: a misconfigured DefaultTimeout above
// MaxTimeout is clamped the same way client deadlines are.
func TestDefaultTimeoutAlsoClamped(t *testing.T) {
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		<-ctx.Done()
		return alive.CanceledResult(ctx.Err())
	})
	_, base, cancel, errc := start(t, Config{
		Workers: 2, Oracle: blocking,
		DefaultTimeout: time.Hour, MaxTimeout: 150 * time.Millisecond,
	})
	t0 := time.Now()
	code, body, _ := postJSON(t, &http.Client{}, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Reason != "canceled" {
		t.Fatalf("response = %+v, want canceled", vr)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("default-timeout clamp did not apply: took %v", elapsed)
	}
	drain(t, cancel, errc)
}

// TestPanicRecovery: a panicking handler answers 500, increments
// veriopt_panics_total, and leaves the worker pool alive — the
// process must keep serving afterwards.
func TestPanicRecovery(t *testing.T) {
	panicking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		panic("injected failure")
	})
	_, base, cancel, errc := start(t, Config{Workers: 2, Oracle: panicking})
	client := &http.Client{}

	code, body, _ := postJSON(t, client, base+"/v1/verify",
		VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s, want 500", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "injected failure") {
		t.Fatalf("error %q does not carry the panic value", er.Error)
	}

	// The worker survived: the server still answers.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	resp.Body.Close()
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(blob), "veriopt_panics_total 1") {
		t.Fatalf("metrics missing veriopt_panics_total 1:\n%s", blob)
	}
	drain(t, cancel, errc)
}

// TestParseFailureCarriesLine: the 400 that answers a source or module
// that does not parse names the parser's line beside its message; a 400
// for any other reason has no line.
func TestParseFailureCarriesLine(t *testing.T) {
	_, base, cancel, errc := start(t, Config{Workers: 1, Oracle: oracle.NewStack(oracle.Config{})})
	client := &http.Client{}
	const badLine3 = "define i32 @f(i32 noundef %0) {\n  %2 = add i32 %0, 0\n  %3 = frob i32 %2\n  ret i32 %3\n}\n"
	const useBeforeDef = "define i32 @f(i32 noundef %0) {\nentry:\n  br label %b\n\nb:\n  %2 = add i32 %3, 0\n  %3 = add i32 %0, 1\n  ret i32 %2\n}\n"
	for _, tc := range []struct {
		name, path string
		req        any
		msg        string
		line       int
	}{
		{"verify source", "/v1/verify", VerifyRequest{Src: badLine3, Tgt: tgtAddZero}, `source does not parse: line 3: unknown instruction "frob"`, 3},
		{"verify source, first line", "/v1/verify", VerifyRequest{Src: "not ir", Tgt: tgtAddZero}, "source does not parse: line 1: ", 1},
		{"optimize module", "/v1/optimize", optimizeRequest{IR: "declare i32 @g(i32)\n\n" + badLine3}, `module does not parse: line 5: unknown instruction "frob"`, 5},
		{"verify source that parses", "/v1/verify", VerifyRequest{Src: useBeforeDef, Tgt: tgtAddZero}, "source does not verify: ", 0},
		{"negative timeout", "/v1/verify", VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero, TimeoutMs: -5}, "timeout_ms", 0},
	} {
		code, body, _ := postJSON(t, client, base+tc.path, tc.req)
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != http.StatusBadRequest || !strings.Contains(er.Error, tc.msg) || er.Line != tc.line {
			t.Errorf("%s: status %d, body %s; want 400, error containing %q, line %d", tc.name, code, body, tc.msg, tc.line)
		}
		if hasLine := bytes.Contains(body, []byte(`"line"`)); hasLine != (tc.line != 0) {
			t.Errorf("%s: body %s; \"line\" present = %v", tc.name, body, hasLine)
		}
	}
	drain(t, cancel, errc)
}

// TestServeQueuedEdges pins what a request answers at the edges of the
// work bound and of body decoding: status and exact body. The oracle
// answers equivalent at once, except to a request with a deadline,
// which it holds until that deadline ends. Bodies are served in
// process, so a body past the 1 MiB bound is answered without a client
// that stops writing it; a body of unknown length (chunked) is read the
// same way.
func TestServeQueuedEdges(t *testing.T) {
	const (
		canceled = `{"verdict":"inconclusive","diag":"ERROR: verification canceled: context deadline exceeded","reason":"canceled"}`
		proved   = `{"verdict":"equivalent"}`
	)
	pair, err := json.Marshal(VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if err != nil {
		t.Fatal(err)
	}
	object := string(pair)
	prefix := `{"src":` + strconv.Quote(srcAddZero) + `,"tgt":"`
	for _, tc := range []struct {
		name string
		body string
		// chunked sends the body with no Content-Length.
		chunked bool
		// busy first sends a request that holds the only slot until its
		// own 300 ms deadline ends.
		busy bool
		// drained sends the request after Run has returned.
		drained bool
		code    int
		want    string
	}{
		{name: "proved", body: object, code: 200, want: proved},
		{name: "deadline ends while waiting for the slot", busy: true,
			body: `{"src":` + strconv.Quote(srcAddZero) + `,"tgt":` + strconv.Quote(tgtAddZero) + `,"timeout_ms":20}`,
			code: 200, want: canceled},
		{name: "empty", body: ``, code: 400, want: `{"error":"bad request body: EOF"}`},
		{name: "only spaces", body: " \n\t ", code: 400, want: `{"error":"bad request body: EOF"}`},
		{name: "malformed", body: `{"src" "x"}`, code: 400, want: `{"error":"bad request body: invalid character '\"' after object key"}`},
		{name: "not json", body: `not json`, code: 400, want: `{"error":"bad request body: invalid character 'o' in literal null (expecting 'u')"}`},
		{name: "truncated", body: object[:len(object)-1], code: 400, want: `{"error":"bad request body: unexpected EOF"}`},
		{name: "wrong type", body: `{"src":7}`, code: 400, want: `{"error":"bad request body: json: cannot unmarshal number into Go struct field VerifyRequest.src of type string"}`},
		{name: "trailing bytes after the object", body: object + ` trailing`, code: 200, want: proved},
		{name: "a second object", body: object + object, code: 200, want: proved},
		{name: "trailing bytes, chunked", body: object + `}}`, chunked: true, code: 200, want: proved},
		{name: "over 1 MiB", body: prefix + strings.Repeat("a", maxBodyBytes) + `"}`, code: 400,
			want: `{"error":"bad request body: http: request body too large"}`},
		{name: "over 1 MiB, chunked", body: prefix + strings.Repeat("a", maxBodyBytes) + `"}`, chunked: true, code: 400,
			want: `{"error":"bad request body: http: request body too large"}`},
		{name: "an object then 1 MiB of spaces", body: object + strings.Repeat(" ", maxBodyBytes), code: 200, want: proved},
		{name: "after the drain", drained: true, body: object, code: 503, want: `{"error":"server draining"}`},
	} {
		started := make(chan struct{}, 1)
		holding := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			if _, ok := ctx.Deadline(); !ok {
				return alive.Result{Verdict: alive.Equivalent}
			}
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return alive.CanceledResult(ctx.Err())
		})
		s, _, cancel, errc := start(t, Config{Workers: 1, QueueSize: 4, Oracle: holding})
		serve := func(body string, chunked bool) *httptest.ResponseRecorder {
			var rd io.Reader = strings.NewReader(body)
			if chunked {
				rd = struct{ io.Reader }{rd}
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/verify", rd)
			rec := httptest.NewRecorder()
			s.handler.ServeHTTP(rec, req)
			return rec
		}
		held := make(chan *httptest.ResponseRecorder, 1)
		if tc.busy {
			go func() {
				held <- serve(`{"src":`+strconv.Quote(srcAddZero)+`,"tgt":`+strconv.Quote(tgtAddZero)+`,"timeout_ms":300}`, false)
			}()
			<-started
		}
		if tc.drained {
			drain(t, cancel, errc)
		}
		rec := serve(tc.body, tc.chunked)
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != tc.code || got != tc.want {
			t.Errorf("%s: %d %s, want %d %s", tc.name, rec.Code, got, tc.code, tc.want)
		}
		if tc.busy {
			if r := <-held; r.Code != 200 || strings.TrimSuffix(r.Body.String(), "\n") != canceled {
				t.Errorf("%s: the request holding the slot answered %d %s", tc.name, r.Code, r.Body)
			}
		}
		if !tc.drained {
			drain(t, cancel, errc)
		}
	}
}

// TestVerifyReasonsOfLimits: on a real stack, a /v1/verify whose options
// a pair exhausts answers inconclusive with the reason of the limit it
// ran out of: max_paths, max_steps or solver_budget.
func TestVerifyReasonsOfLimits(t *testing.T) {
	const loop = `define i32 @loop(i32 noundef %x) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, 40
  br i1 %c, label %body, label %out
body:
  %acc1 = add i32 %acc, %x
  %i1 = add i32 %i, 1
  br label %head
out:
  ret i32 %acc
}
`
	// x * (y + z) against x*y + x*z: the solver must search to prove it.
	const (
		distSrc = "define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %s = add i6 %y, %z\n  %r = mul i6 %x, %s\n  ret i6 %r\n}\n"
		distTgt = "define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %a = mul i6 %x, %y\n  %b = mul i6 %x, %z\n  %r = add i6 %a, %b\n  ret i6 %r\n}\n"
	)
	_, base, cancel, errc := start(t, Config{Workers: 2, Oracle: oracle.NewStack(oracle.Config{})})
	defer drain(t, cancel, errc)
	for _, tc := range []struct {
		name     string
		src, tgt string
		opts     OptionsJSON
		reason   string
	}{
		{"max_paths", loop, loop, OptionsJSON{MaxPaths: 8}, "path_limit"},
		{"max_steps", loop, loop, OptionsJSON{MaxSteps: 20}, "step_limit"},
		{"solver_budget", distSrc, distTgt, OptionsJSON{SolverBudget: 1}, "conflict_budget"},
		{"within every limit", distSrc, distTgt, OptionsJSON{}, ""},
	} {
		code, body, _ := postJSON(t, &http.Client{}, base+"/v1/verify", VerifyRequest{Src: tc.src, Tgt: tc.tgt, Options: &tc.opts})
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil || code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s, err %v", tc.name, code, body, err)
		}
		want := "inconclusive"
		if tc.reason == "" {
			want = "equivalent"
		}
		if vr.Verdict != want || vr.Reason != tc.reason {
			t.Errorf("%s: %+v, want %s with reason %q", tc.name, vr, want, tc.reason)
		}
	}
}

// TestPanicGivesBackItsSlot: with one slot, the request after a
// panicking one is served, not left waiting for a slot nobody returned.
func TestPanicGivesBackItsSlot(t *testing.T) {
	var calls atomic.Int32
	once := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		if calls.Add(1) == 1 {
			panic("injected failure")
		}
		return alive.Result{Verdict: alive.Equivalent}
	})
	_, base, cancel, errc := start(t, Config{Workers: 1, QueueSize: 1, Oracle: once})
	client := &http.Client{Timeout: 10 * time.Second}
	for _, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		if code, body, _ := postJSON(t, client, base+"/v1/verify", VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero}); code != want {
			t.Fatalf("status = %d, body %s, want %d", code, body, want)
		}
	}
	drain(t, cancel, errc)
}
