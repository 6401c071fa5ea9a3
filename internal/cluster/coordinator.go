package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	// defaultProbeInterval paces the health prober's /healthz checks of
	// replicas marked down.
	defaultProbeInterval = 250 * time.Millisecond
	// retryBackoff is the delay before a failed attempt is re-routed to
	// the key's next replica in order; it doubles per successive failure
	// within one query.
	retryBackoff = 2 * time.Millisecond
	// maxConnsPerReplica bounds each replica's HTTP connection pool.
	maxConnsPerReplica = 64
)

// Config names a Coordinator's fleet. Replicas is required.
type Config struct {
	// Replicas are the worker base URLs ("http://host:port"). The set
	// is fixed for the coordinator's lifetime; failed replicas are
	// skipped, not removed, so recovery never remaps keys.
	Replicas []string
	// Obs receives replica_down/replica_up health events (nil
	// = no tracing).
	Obs *obs.Recorder
}

// replica is one worker endpoint with its own bounded client and
// traffic counters.
type replica struct {
	url     string
	seed    uint64 // the first 8 bytes of sha256(url): the replica's rendezvous seed
	client  *http.Client
	healthy atomic.Bool

	requests atomic.Uint64
	errors   atomic.Uint64
	retries  atomic.Uint64
}

// Coordinator fans verification queries out to worker replicas. It
// implements oracle.Remote: install it as oracle.Config.Remote.
// Construct with New, then Start the health prober; Wait after
// canceling Start's context to reap it.
//
// It is a transport and coalesces nothing itself: the stack it sits in
// admits one leader per key digest (vcache.Engine's singleflight) before
// a query can reach it, and that digest is the one order routes on.
type Coordinator struct {
	cfg  Config
	reps []*replica
	// probeInterval is defaultProbeInterval outside this package's tests.
	probeInterval time.Duration

	wg sync.WaitGroup
}

// New builds a coordinator over cfg.Replicas. All replicas start
// healthy; traffic demotes, probing promotes.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	c := &Coordinator{cfg: cfg, probeInterval: defaultProbeInterval}
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
		sum := sha256.Sum256([]byte(url))
		rep := &replica{url: url, seed: binary.BigEndian.Uint64(sum[:8]), client: &http.Client{Transport: tr}}
		rep.healthy.Store(true)
		c.reps = append(c.reps, rep)
	}
	return c, nil
}

// Start launches the health prober, which re-checks demoted replicas
// every probeInterval and promotes one that answers /healthz again.
// Cancel ctx and call Wait to stop it.
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
	t := time.NewTicker(c.probeInterval)
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
			pctx, cancel := context.WithTimeout(ctx, c.probeInterval)
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

// VerifyRemote implements oracle.Remote. It offers the query to one
// replica at a time, under the caller's context, walking the key's
// order, healthy replicas first: the first answer is returned; a failed
// attempt is counted against its replica, a transport failure (the dial
// or the round trip failed — not an HTTP refusal: a replica shedding 429
// or draining 503 is alive) demotes it, and the next replica is tried
// after a backoff. A slow replica is waited on for as long as the
// caller's deadline allows; a caller whose context ends gets a canceled
// result, which is no replica's failure. A non-nil error means the
// whole fleet failed the query and the caller (oracle.Stack.Verify)
// should fall back to local verification.
func (c *Coordinator) VerifyRemote(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
	// Print each function once: the text is the wire body, its fingerprint the key.
	srcText, tgtText := ir.CanonicalText(src), ir.CanonicalText(tgt)
	key := vcache.Key{
		Src:  ir.FingerprintText(srcText),
		Dst:  ir.FingerprintText(tgtText),
		Opts: opts,
	}.Fingerprint()
	order := c.order(key)
	body, err := json.Marshal(server.VerifyRequest{
		Src:     srcText,
		Tgt:     tgtText,
		Options: &server.OptionsJSON{MaxPaths: opts.MaxPaths, MaxSteps: opts.MaxSteps, SolverBudget: opts.SolverBudget},
	})
	if err != nil {
		return alive.Result{}, fmt.Errorf("cluster: marshal request: %w", err)
	}

	var firstErr error
	backoff := retryBackoff
	for i, idx := range order {
		rep := c.reps[idx]
		rep.requests.Add(1)
		if i > 0 {
			rep.retries.Add(1)
		}
		res, err, transport := c.post(ctx, rep, body)
		if err == nil {
			c.markUp(rep, "answered a query")
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller's context ended under the attempt: what the
			// attempt returned says nothing about the replica.
			return alive.CanceledResult(ctx.Err()), nil
		}
		rep.errors.Add(1)
		if transport {
			c.markDown(rep, err.Error())
		}
		if firstErr == nil {
			firstErr = err
		}
		if i+1 < len(order) {
			// Re-route after a backoff so a fleet-wide hiccup
			// (everyone restarting) is ridden out instead of
			// burned through in microseconds.
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return alive.CanceledResult(ctx.Err()), nil
			}
			backoff *= 2
		}
	}
	return alive.Result{}, fmt.Errorf("cluster: all %d replicas failed: %w", len(order), firstErr)
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
		Counterexample:  vr.Counterexample,
		SolverConflicts: vr.SolverConflicts,
	}, nil, false
}
