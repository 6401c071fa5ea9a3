package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
)

// TestServeSmoke is the acceptance gate behind `make serve-smoke`:
// the server must sustain >= 100 concurrent /v1/verify requests
// through the bounded queue — every response a 200 verdict or an
// explicit 429 shed, never an error or a hang — expose the oracle hit
// rate and queue depth on /metrics, and drain with no goroutine left.
// A few /v1/optimize and /v1/evaluate requests ride in the same load:
// the oracle stack and the evaluate corpus cache are shared state, and
// tier 2 runs this under -race.
func TestServeSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	// A small set of distinct peepholes, cycled: concurrent identical
	// queries coalesce through the vcache singleflight, repeats hit
	// the cache.
	pairs := make([][2]string, 8)
	pairSrcs := map[string]bool{}
	for i := range pairs {
		pairs[i] = [2]string{
			fmt.Sprintf("define i32 @f(i32 noundef %%0) {\n  %%2 = add i32 %%0, 0\n  %%3 = add i32 %%2, %d\n  ret i32 %%3\n}\n", i),
			fmt.Sprintf("define i32 @f(i32 noundef %%0) {\n  %%2 = add i32 %%0, %d\n  ret i32 %%2\n}\n", i),
		}
		f, err := ir.ParseFunc(pairs[i][0])
		if err != nil {
			t.Fatal(err)
		}
		pairSrcs[ir.FuncString(f)] = true
	}
	// pairRuns counts the solver runs spent on the pairs, apart from
	// the optimize and evaluate queries sharing the stack.
	var pairRuns atomic.Int64
	solver := oracle.Base()
	st := oracle.NewStack(oracle.Config{Base: oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		if pairSrcs[ir.FuncString(src)] {
			pairRuns.Add(1)
		}
		return solver.Verify(ctx, src, tgt, opts)
	})})
	s, base, cancel, errc := start(t, Config{Workers: 4, QueueSize: 64, Oracle: st})
	tr := &http.Transport{MaxIdleConnsPerHost: 128}
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	// The other endpoints' requests: more evaluate corpora than the
	// cache keeps, so it evicts. Each retries a shed until admitted,
	// so every one of them runs.
	type extra struct {
		path string
		req  any
	}
	var extras []extra
	for i := 0; i < 4; i++ {
		extras = append(extras, extra{"/v1/optimize", optimizeRequest{
			IR: fmt.Sprintf("define i32 @g(i32 noundef %%0) {\n  %%2 = mul i32 %%0, 1\n  %%3 = add i32 %%2, %d\n  ret i32 %%3\n}\n", i)}})
	}
	for seed := 0; seed < corpusCacheBound+2; seed++ {
		extras = append(extras, extra{"/v1/evaluate", evaluateRequest{Seed: int64(seed), N: 2}})
	}
	extraCodes := make([]int, len(extras))
	extraBodies := make([][]byte, len(extras))

	const n = 120
	codes := make([]int, n)
	verdicts := make([]string, n)
	var wg sync.WaitGroup
	for i, e := range extras {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := postJSON(t, client, base+e.path, e.req)
			for tries := 0; code == http.StatusTooManyRequests && tries < 500; tries++ {
				time.Sleep(10 * time.Millisecond)
				code, body, _ = postJSON(t, client, base+e.path, e.req)
			}
			extraCodes[i], extraBodies[i] = code, body
		}()
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := pairs[i%len(pairs)]
			code, body, _ := postJSON(t, client, base+"/v1/verify",
				VerifyRequest{Src: p[0], Tgt: p[1]})
			codes[i] = code
			if code == http.StatusOK {
				var vr VerifyResponse
				if err := json.Unmarshal(body, &vr); err == nil {
					verdicts[i] = vr.Verdict
				}
			}
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
			if verdicts[i] != "equivalent" {
				t.Errorf("request %d verdict = %q, want equivalent", i, verdicts[i])
			}
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d status = %d, want 200 or 429", i, code)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("smoke: %d ok, %d shed of %d concurrent", ok, shed, n)
	for i, e := range extras {
		if extraCodes[i] != http.StatusOK {
			t.Fatalf("%s %+v: status %d, body %s", e.path, e.req, extraCodes[i], extraBodies[i])
		}
		var or optimizeResponse
		var er evaluateResponse
		if e.path == "/v1/optimize" && (json.Unmarshal(extraBodies[i], &or) != nil || len(or.Functions) != 1) ||
			e.path == "/v1/evaluate" && (json.Unmarshal(extraBodies[i], &er) != nil || er.Total+er.Skipped != 2) {
			t.Errorf("%s %+v: body %s", e.path, e.req, extraBodies[i])
		}
	}
	s.corpusMu.Lock()
	if len(s.corpora) > corpusCacheBound || len(s.corpusQ) != len(s.corpora) {
		t.Errorf("corpus cache holds %d corpora, %d queued; bound %d", len(s.corpora), len(s.corpusQ), corpusCacheBound)
	}
	s.corpusMu.Unlock()

	// The cache must have answered most of the load: 8 distinct
	// queries, everything else hits or coalesces.
	cs := st.Engine.Stats()
	if r := pairRuns.Load(); r > int64(len(pairs)) {
		t.Errorf("solver ran %d times for %d distinct queries", r, len(pairs))
	}
	if cs.Hits == 0 {
		t.Error("no cache hits under concurrent identical load")
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(blob)
	for _, want := range []string{
		"veriopt_vcache_hit_rate ",
		"veriopt_queue_depth ",
		"veriopt_queue_capacity 64",
		`veriopt_requests_total{endpoint="/v1/verify",code="200"} `,
		`veriopt_oracle_total{counter="equivalent"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	drain(t, cancel, errc)
	if s.queueDepth() != 0 {
		t.Errorf("queue depth %d after drain", s.queueDepth())
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines: %d before, %d after drain", before, g)
	}
}
