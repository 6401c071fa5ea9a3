package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/server"
)

// TestMain: a test binary re-executed as a slow worker (startWorker)
// serves until SIGTERM and exits; anything else runs the tests.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == workerArg {
		if err := serveWorker(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "slow worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestClusterSmoke is the multi-process acceptance gate for cluster
// mode (`make cluster-smoke`): the built `veriopt serve -replicas`
// coordinator in front of worker processes, driven over HTTP. The
// workers are harness-owned (startWorker: this test binary re-executed
// as internal/server over a stack whose base sleeps before verifying),
// so the injected latency lives here and not in the product.
//
// It proves, in order:
//
//  1. Scale-out: fan-out throughput over 1, 2, and 4 worker replicas
//     on a latency-bound workload (the workers' sleep makes a
//     single-CPU machine measure fan-out, not solver parallelism).
//     The 2-replica run must beat the 1-replica baseline by >= 1.7x
//     and the 4-replica run by >= 3x.
//  2. Fault tolerance: SIGKILL one of two replicas mid-stream — every
//     accepted request still answers 200 with the right verdict —
//     then restart it on the same port and watch the coordinator's
//     health probes heal the ring.
//
// What each phase measured is logged (go test -v), not checked in:
// these are injected-latency plumbing numbers, not a speed claim.
//
// The test is env-gated: plain `go test ./...` skips it (tier-1 stays
// fast and free of process-management flake surface); the in-process
// tests in this package cover the same logic seams deterministically.
func TestClusterSmoke(t *testing.T) {
	if os.Getenv("CLUSTER_SMOKE") == "" {
		t.Skip("multi-process harness; run via `make cluster-smoke` (CLUSTER_SMOKE=1)")
	}
	bin := buildVeriopt(t)

	// --- Phase 1: throughput scaling over 1/2/4 replicas. ---
	workers := make([]*proc, 4)
	for i := range workers {
		workers[i] = startWorker(t, worker{Delay: scaleDelay})
	}
	// Warm every worker before measuring: the first queries into a
	// fresh process pay lazy-init costs that would otherwise land only
	// on the wider-fleet runs (workers 3 and 4 first see traffic in
	// the 4-replica run).
	for i, w := range workers {
		for j := 0; j < 4; j++ {
			if err := postVerify(w.url, 90000+i*10+j); err != nil {
				t.Fatalf("warmup worker %d: %v", i, err)
			}
		}
	}
	var base float64
	for _, n := range []int{1, 2, 4} {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = workers[i].url
		}
		coord := startServe(t, bin,
			"-workers", "128", "-queue", "512",
			"-replicas", strings.Join(urls, ","))
		done, p50, p99 := fireWindow(t, coord.url, scaleWindow, scaleClients, n*100000)
		coord.stop()
		qps := float64(done) / scaleWindow.Seconds()
		t.Logf("replicas=%d completed=%d qps=%.0f p50=%v p99=%v", n, done, qps, p50, p99)
		if n == 1 {
			base = qps
			continue
		}
		ratio := qps / base
		t.Logf("replicas=%d throughput ratio %.2fx", n, ratio)
		if want := map[int]float64{2: 1.7, 4: 3.0}[n]; ratio < want {
			t.Errorf("replicas=%d throughput ratio %.2fx, want >= %.1fx", n, ratio, want)
		}
	}
	for _, w := range workers {
		w.stop()
	}

	// --- Phase 2: kill one replica mid-stream, heal the ring. ---
	killWorker := worker{Delay: 10 * time.Millisecond}
	kw := []*proc{
		startWorker(t, killWorker),
		startWorker(t, killWorker),
	}
	coord := startServe(t, bin,
		"-workers", "32", "-queue", "512",
		"-replicas", kw[0].url+","+kw[1].url)

	const killQueries = 200
	var completed atomic.Int64
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for completed.Load() < killQueries/4 {
			time.Sleep(time.Millisecond)
		}
		kw[1].kill()
	}()
	var wg sync.WaitGroup
	errs := make(chan error, killQueries)
	sem := make(chan struct{}, 16)
	for q := 0; q < killQueries; q++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(q int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := postVerify(coord.url, 70000+q); err != nil {
				errs <- fmt.Errorf("query %d: %w", q, err)
			}
			completed.Add(1)
		}(q)
	}
	wg.Wait()
	<-killed
	close(errs)
	for err := range errs {
		t.Errorf("accepted work lost across the kill: %v", err)
	}

	// Heal: bring the killed replica back on its old address and wait
	// for the coordinator's prober to re-promote it.
	killWorker.Addr = kw[1].addr
	kw[1] = startWorker(t, killWorker)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if strings.Contains(scrape(t, coord.url), "veriopt_cluster_replicas_healthy 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring never healed after the killed replica returned")
		}
		time.Sleep(50 * time.Millisecond)
	}
	metrics := scrape(t, coord.url)
	if !strings.Contains(metrics, "veriopt_cluster_oracle_total") {
		t.Error("coordinator /metrics is missing the merged worker scrape")
	}
	coord.stop()
	kw[0].stop()
	kw[1].stop()
}

// Harness sizing. The scaling workload is latency-bound by design:
// each slow worker runs 8 queue workers over an 80ms verification
// sleep, so per-replica capacity is 100 qps and a saturating client
// pool measures fan-out, not single-CPU solver throughput (total CPU
// demand at 4 replicas is ~400 qps x ~0.6ms of parse/JSON/HTTP work
// per query, about a quarter of the one core everything here shares).
//
// Throughput is measured over a fixed time window with continuous
// load rather than as the wall time of a fixed batch: consistent
// hashing splits any finite key set unevenly (binomially) across
// replicas, so a fixed batch drains unevenly and its wall time tracks
// the most-loaded replica, understating fan-out. Under sustained
// backpressure every replica stays busy for the whole window — key
// imbalance only deepens a queue — so completions per window measure
// genuine aggregate capacity.
const (
	scaleDelay   = 80 * time.Millisecond
	scaleWindow  = 2 * time.Second
	scaleClients = 64
)

func quantiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[len(sorted)/2], sorted[(len(sorted)*99)/100]
}

// verifyQuery builds the q-th distinct query: structurally different
// constants give every query its own fingerprint (and so its own ring
// placement and worker-cache slot), while src == tgt keeps the
// verdict trivially "equivalent" so the injected latency, not solver
// wall, dominates.
func verifyQuery(q int) (src, tgt string) {
	text := fmt.Sprintf(`define i32 @f(i32 noundef %%0) {
  %%2 = add i32 %%0, %d
  ret i32 %%2
}
`, q)
	return text, text
}

// smokeClient is shared across all harness requests: connection reuse
// keeps the client's own CPU cost out of the scaling measurement (a
// per-request client would pay a fresh TCP handshake per query, which
// is pure overhead on the single core everything here shares).
var smokeClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 64,
	},
}

// postVerify sends one /v1/verify and checks for an accepted, correct
// answer.
func postVerify(baseURL string, q int) error {
	src, tgt := verifyQuery(q)
	body, _ := json.Marshal(server.VerifyRequest{Src: src, Tgt: tgt})
	resp, err := smokeClient.Post(baseURL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, blob)
	}
	var vr server.VerifyResponse
	if err := json.Unmarshal(blob, &vr); err != nil {
		return err
	}
	if vr.Verdict != "equivalent" || vr.Reason != "" {
		return fmt.Errorf("verdict %q reason %q, want equivalent", vr.Verdict, vr.Reason)
	}
	return nil
}

// fireWindow drives continuous distinct-key load at the given
// concurrency for the window and returns the number of requests that
// completed inside it, plus latency quantiles over those completions.
func fireWindow(t *testing.T, baseURL string, window time.Duration, concurrency, keyBase int) (int, time.Duration, time.Duration) {
	t.Helper()
	var (
		mu   sync.Mutex
		lats []time.Duration
		next atomic.Int64
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(window)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				q := keyBase + int(next.Add(1))
				if err := postVerify(baseURL, q); err != nil {
					t.Errorf("query %d: %v", q, err)
					return
				}
				if done := time.Now(); !done.After(deadline) {
					mu.Lock()
					lats = append(lats, done.Sub(t0))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p50, p99 := quantiles(lats)
	return len(lats), p50, p99
}

func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// The process harness: build and launch the real `veriopt serve`, and
// launch slow workers by re-executing this test binary. The slow worker
// is where the smoke's injected verification latency lives; the shipped
// oracle stack has no sleep in it.

// workerArg as os.Args[1] marks a test binary re-executed as a slow
// worker; see TestMain.
const workerArg = "cluster-smoke-slow-worker"

// worker sizes one slow worker: a serving process whose every live
// verification first sleeps Delay, the stand-in for solver work that
// makes a fan-out measurement latency-bound on a machine where real
// verification would be CPU-bound. It travels to the child as JSON.
type worker struct {
	// Addr is the listen address; empty picks a free loopback port.
	Addr  string
	Delay time.Duration
}

// slowBase is the oracle.Func a slow worker installs at Config.Base:
// sleep, honoring ctx so a caller's cancellation aborts it promptly,
// then run the real verifier.
func (w worker) slowBase() oracle.Oracle {
	base := oracle.Base()
	return oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		t := time.NewTimer(w.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return alive.CanceledResult(ctx.Err())
		}
		return base.Verify(ctx, src, tgt, opts)
	})
}

// serveWorker is the child side of startWorker: spec is the worker as
// JSON.
func serveWorker(spec string) error {
	var w worker
	if err := json.Unmarshal([]byte(spec), &w); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	srv := server.New(server.Config{
		Workers:        8,
		QueueSize:      256,
		DefaultTimeout: 30 * time.Second,
		Oracle:         oracle.NewStack(oracle.Config{Base: w.slowBase()}),
	})
	ln, err := net.Listen("tcp", w.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "slow worker: listening on http://%s\n", ln.Addr())
	return srv.Run(ctx, ln)
}

// startWorker launches a slow worker process. A fixed addr is retried
// for a while: a port freed by a kill can linger briefly.
func startWorker(t *testing.T, w worker) *proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	fixed := w.Addr != ""
	if !fixed {
		w.Addr = "127.0.0.1:0"
	}
	spec, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, err := launch(t, exe, []string{workerArg, string(spec)})
		if err == nil {
			return p
		}
		if !fixed || time.Now().After(deadline) {
			t.Fatalf("start slow worker: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// buildVeriopt builds the CLI into the test's temp directory.
func buildVeriopt(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "veriopt")
	cmd := exec.Command("go", "build", "-o", bin, "veriopt/cmd/veriopt")
	if blob, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, blob)
	}
	return bin
}

// startServe launches `bin serve` on a free loopback port with the
// extra flags.
func startServe(t *testing.T, bin string, extra ...string) *proc {
	t.Helper()
	p, err := launch(t, bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// proc is one spawned serving process.
type proc struct {
	cmd  *exec.Cmd
	addr string // host:port actually bound
	url  string // http://host:port
}

// launch starts exe, reads the bound address off its "listening on"
// banner, and waits for /healthz. The process is killed at test end if
// it is still running.
func launch(t *testing.T, exe string, args []string) (*proc, error) {
	t.Helper()
	cmd := exec.Command(exe, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd}
	t.Cleanup(p.kill)

	// Parse the bound address off the startup banner, then keep
	// draining stderr so the process never blocks on a full pipe.
	lines := bufio.NewScanner(stderr)
	var banner bytes.Buffer
	for lines.Scan() {
		line := lines.Text()
		banner.WriteString(line + "\n")
		if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
			p.addr = strings.Fields(rest)[0]
			p.url = "http://" + p.addr
			break
		}
	}
	if p.url == "" {
		p.kill()
		return nil, fmt.Errorf("no listening banner from %s %v:\n%s", exe, args, banner.String())
	}
	go io.Copy(io.Discard, stderr)

	// Readiness: the banner precedes Run; wait for /healthz.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("%s never became healthy", p.url)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the process gracefully (SIGTERM) and reaps it.
func (p *proc) stop() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// kill SIGKILLs the process (the mid-run replica failure) and reaps
// it. Killing a process already reaped is a no-op.
func (p *proc) kill() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}
