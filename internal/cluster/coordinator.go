package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
	"veriopt/internal/server"
	"veriopt/internal/vcache"
)

const (
	// defaultProbeInterval is the zero Config's ProbeInterval.
	defaultProbeInterval = 250 * time.Millisecond
	// retryBackoff is the delay before a failed attempt is re-routed to
	// the next replica in ring order; it doubles per successive failure
	// within one query.
	retryBackoff = 2 * time.Millisecond
	// maxConnsPerReplica bounds each replica's HTTP connection pool.
	maxConnsPerReplica = 64
	// hedgeFloor is the hedge delay used until the latency sampler has
	// seen enough wins to estimate quantiles: late enough that a
	// healthy fleet almost never hedges cold, early enough to matter.
	hedgeFloor = 25 * time.Millisecond
	// hedgeMinSamples gates the quantile estimate: below this the
	// sampler's tail is noise and the floor is safer.
	hedgeMinSamples = 16
	// samplerSize bounds the latency reservoir (a ring buffer of the
	// most recent winning-attempt latencies).
	samplerSize = 256
)

// Config sizes a Coordinator. Replicas is required; everything else
// has a usable zero value.
type Config struct {
	// Replicas are the worker base URLs ("http://host:port"). The set
	// is fixed for the coordinator's lifetime; failed replicas are
	// skipped, not removed, so recovery never remaps keys.
	Replicas []string
	// VNodes is the ring's virtual-node count per replica (<= 0
	// selects DefaultVNodes).
	VNodes int
	// HedgeAfter fixes the hedge delay. 0 selects the adaptive policy:
	// max(1ms, min(p99, 4*p50)) over recent winning latencies, with
	// hedgeFloor until enough samples accumulate.
	HedgeAfter time.Duration
	// DisableHedge turns speculative second attempts off entirely
	// (retries on failure still re-route).
	DisableHedge bool
	// ProbeInterval paces the health prober's /healthz checks of
	// replicas marked down (<= 0 selects defaultProbeInterval).
	ProbeInterval time.Duration
	// Obs receives replica_down/replica_up ring-membership events (nil
	// = no tracing).
	Obs *obs.Recorder
}

// replica is one worker endpoint with its own bounded client and
// traffic counters.
type replica struct {
	url     string
	client  *http.Client
	healthy atomic.Bool

	requests  atomic.Uint64
	errors    atomic.Uint64
	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
}

// Coordinator fans verification queries out to worker replicas. It
// implements oracle.Remote: install it as oracle.Config.Remote.
// Construct with New, then Start the health prober; Wait after
// canceling Start's context to reap it.
//
// It is a transport and coalesces nothing itself: the stack it sits in
// admits one leader per key digest (vcache.Engine's singleflight) before
// a query can reach it, and that digest is the one the ring routes on.
type Coordinator struct {
	cfg  Config
	ring *Ring
	reps []*replica

	sampler latencySampler

	wg sync.WaitGroup
}

// New builds a coordinator over cfg.Replicas. All replicas start
// healthy; traffic demotes, probing promotes.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	c := &Coordinator{cfg: cfg, ring: NewRing(cfg.Replicas, cfg.VNodes)}
	for _, url := range cfg.Replicas {
		// Each replica gets its own transport so one slow replica
		// cannot starve the others' connection pools, and so
		// MaxConnsPerHost genuinely bounds per-replica fan-in.
		tr := &http.Transport{
			MaxIdleConns:        maxConnsPerReplica,
			MaxIdleConnsPerHost: maxConnsPerReplica,
			MaxConnsPerHost:     maxConnsPerReplica,
			IdleConnTimeout:     90 * time.Second,
		}
		rep := &replica{url: url, client: &http.Client{Transport: tr}}
		rep.healthy.Store(true)
		c.reps = append(c.reps, rep)
	}
	return c, nil
}

// Start launches the health prober, which re-checks demoted replicas
// every ProbeInterval and heals the ring when one answers /healthz
// again. Cancel ctx and call Wait to stop it.
func (c *Coordinator) Start(ctx context.Context) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.probeLoop(ctx)
	}()
}

// Wait blocks until goroutines launched by Start have exited.
func (c *Coordinator) Wait() { c.wg.Wait() }

func (c *Coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, rep := range c.reps {
			if rep.healthy.Load() {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/healthz", nil)
			if err != nil {
				cancel()
				continue
			}
			resp, err := rep.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			if err == nil && resp.StatusCode == http.StatusOK {
				c.markUp(rep, "healthz probe succeeded")
			}
		}
	}
}

func (c *Coordinator) markDown(rep *replica, why string) {
	if rep.healthy.CompareAndSwap(true, false) {
		c.cfg.Obs.Emit(obs.ClusterEvent("replica_down", rep.url, c.healthyCount(), len(c.reps), why))
	}
}

func (c *Coordinator) markUp(rep *replica, why string) {
	if rep.healthy.CompareAndSwap(false, true) {
		c.cfg.Obs.Emit(obs.ClusterEvent("replica_up", rep.url, c.healthyCount(), len(c.reps), why))
	}
}

func (c *Coordinator) healthyCount() int {
	n := 0
	for _, rep := range c.reps {
		if rep.healthy.Load() {
			n++
		}
	}
	return n
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	res alive.Result
	err error
	// transport marks a connection-level failure (dial, reset, EOF) —
	// the demotion signal. HTTP-level refusals (429 shed, 503 drain)
	// re-route without demoting: a shedding replica is alive.
	transport bool
	rep       *replica
	hedge     bool
	elapsed   time.Duration
}

// VerifyRemote implements oracle.Remote. It runs one query against the
// ring: primary attempt on the key's owner, a hedge to the next
// preference after the hedge delay, and backoff retries walking the
// rest of the order on failure. First success wins and cancels the
// losers. A non-nil error means the whole fleet failed the query and
// the caller (oracle.Stack.Verify) should fall back to local
// verification.
func (c *Coordinator) VerifyRemote(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
	// Print each function once: the text is the wire body, its fingerprint the key.
	srcText, tgtText := ir.CanonicalText(src), ir.CanonicalText(tgt)
	key := vcache.Key{
		Src:  ir.FingerprintText(srcText),
		Dst:  ir.FingerprintText(tgtText),
		Opts: opts,
	}.Fingerprint()
	order := c.healthyFirst(c.ring.Order(key))
	body, err := json.Marshal(server.VerifyRequest{
		Src:     srcText,
		Tgt:     tgtText,
		Options: &server.OptionsJSON{MaxPaths: opts.MaxPaths, MaxSteps: opts.MaxSteps, SolverBudget: opts.SolverBudget},
	})
	if err != nil {
		return alive.Result{}, fmt.Errorf("cluster: marshal request: %w", err)
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing attempts' requests

	// Buffered to the attempt count so losing attempts can always
	// deposit their outcome and exit — no goroutine is ever left
	// blocked on this channel after VerifyRemote returns.
	results := make(chan attemptResult, len(order))
	launch := func(i int, hedge bool) {
		rep := c.reps[order[i]]
		rep.requests.Add(1)
		go func() {
			t0 := time.Now()
			res, err, transport := c.post(dctx, rep, body)
			results <- attemptResult{res: res, err: err, transport: transport,
				rep: rep, hedge: hedge, elapsed: time.Since(t0)}
		}()
	}

	launch(0, false)
	next, inflight := 1, 1

	var hedgeC <-chan time.Time
	if !c.cfg.DisableHedge && next < len(order) {
		ht := time.NewTimer(c.hedgeDelay())
		defer ht.Stop()
		hedgeC = ht.C
	}
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	var retryC <-chan time.Time
	backoff := retryBackoff

	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return alive.CanceledResult(ctx.Err()), nil
		case <-hedgeC:
			hedgeC = nil
			if next < len(order) {
				c.reps[order[next]].hedges.Add(1)
				launch(next, true)
				next++
				inflight++
			}
		case <-retryC:
			retryC = nil
			if next < len(order) {
				c.reps[order[next]].retries.Add(1)
				launch(next, false)
				next++
				inflight++
			}
		case a := <-results:
			inflight--
			if a.err == nil {
				c.sampler.add(a.elapsed)
				c.markUp(a.rep, "answered a query")
				if a.hedge {
					a.rep.hedgeWins.Add(1)
				}
				return a.res, nil
			}
			a.rep.errors.Add(1)
			if a.transport {
				c.markDown(a.rep, a.err.Error())
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(order) && retryC == nil {
				// Re-route after a backoff so a fleet-wide hiccup
				// (everyone restarting) is ridden out instead of
				// burned through in microseconds.
				if retryTimer == nil {
					retryTimer = time.NewTimer(backoff)
				} else {
					retryTimer.Reset(backoff)
				}
				retryC = retryTimer.C
				backoff *= 2
			} else if inflight == 0 && next >= len(order) {
				return alive.Result{}, fmt.Errorf("cluster: all %d replicas failed: %w", len(order), firstErr)
			}
		}
	}
}

// healthyFirst stably reorders a ring preference order so healthy
// replicas come before demoted ones, preserving ring order within
// each class. A fully-demoted fleet keeps the original order — the
// attempt itself is the cheapest probe.
func (c *Coordinator) healthyFirst(order []int) []int {
	out := make([]int, 0, len(order))
	for _, i := range order {
		if c.reps[i].healthy.Load() {
			out = append(out, i)
		}
	}
	if len(out) == len(order) {
		return order
	}
	for _, i := range order {
		if !c.reps[i].healthy.Load() {
			out = append(out, i)
		}
	}
	return out
}

// hedgeDelay picks how long the primary attempt runs alone. With a
// fixed HedgeAfter that's that; otherwise it adapts to the fleet:
// min(p99, 4*p50) of recent winning latencies — p99 is the classic
// "hedge when slower than almost everyone" threshold, the 4*p50 clamp
// keeps it useful when a heavy latency tail drags the observed p99
// out to the tail itself — floored at 1ms so a microsecond-fast fleet
// doesn't hedge every request.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	p50, p99, n := c.sampler.quantiles()
	if n < hedgeMinSamples {
		return hedgeFloor
	}
	d := 4 * p50
	if p99 < d {
		d = p99
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// post runs one /v1/verify round-trip against rep. The third return
// distinguishes transport failures (demote) from HTTP refusals
// (re-route only).
func (c *Coordinator) post(ctx context.Context, rep *replica, body []byte) (alive.Result, error, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return alive.Result{}, err, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rep.client.Do(req)
	if err != nil {
		return alive.Result{}, err, true
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return alive.Result{}, fmt.Errorf("replica %s: status %d", rep.url, resp.StatusCode), false
	}
	var vr server.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		return alive.Result{}, fmt.Errorf("replica %s: decode: %w", rep.url, err), false
	}
	v, ok := alive.ParseVerdict(vr.Verdict)
	if !ok {
		return alive.Result{}, fmt.Errorf("replica %s: unknown verdict %q", rep.url, vr.Verdict), false
	}
	return alive.Result{
		Verdict:         v,
		Diag:            vr.Diag,
		Canceled:        vr.Canceled,
		Counterexample:  vr.Counterexample,
		SolverConflicts: vr.SolverConflicts,
	}, nil, false
}

// latencySampler is a bounded reservoir of recent winning-attempt
// latencies, feeding the adaptive hedge delay.
type latencySampler struct {
	mu  sync.Mutex
	buf [samplerSize]time.Duration
	n   int
}

func (s *latencySampler) add(d time.Duration) {
	s.mu.Lock()
	s.buf[s.n%samplerSize] = d
	s.n++
	s.mu.Unlock()
}

func (s *latencySampler) quantiles() (p50, p99 time.Duration, n int) {
	s.mu.Lock()
	n = s.n
	if n > samplerSize {
		n = samplerSize
	}
	sorted := make([]time.Duration, n)
	copy(sorted, s.buf[:n])
	s.mu.Unlock()
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	p50 = sorted[n/2]
	p99 = sorted[(n*99)/100]
	return p50, p99, n
}
