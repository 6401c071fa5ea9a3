// Package server is the verification-as-a-service front-end: a
// long-lived HTTP/JSON service over the oracle stack, so outer agents
// and build systems can invoke the verifier and the trained optimizer
// as a tool instead of shelling out to batch CLIs.
//
// Endpoints:
//
//	POST /v1/verify    src+tgt → Alive verdict via the oracle stack
//	POST /v1/optimize  IR module → model output + verdict + cost-model
//	                   metrics, with the paper's fallback rule
//	POST /v1/evaluate  batched corpus slice → partial pipeline.Report
//	GET  /healthz      liveness + identity JSON (version, role, queue
//	                   depth, store attachment)
//	GET  /metrics      Prometheus text format
//
// A /v1/* request runs on the goroutine net/http serves it on, once it
// holds one of Workers slots of a counting semaphore. At most QueueSize
// requests wait for a slot; past that a request is shed with 429 +
// Retry-After instead of piling up, and once the drain has begun it is
// answered 503. Per-request deadlines (the default or a request's
// timeout_ms) map to context cancellation, so the end-to-end
// cancellation plumbing — alive, vcache, the oracle stack — is
// exercised on every timeout. Identical in-flight verify queries
// coalesce through the verdict cache's singleflight.
//
// A /v1/verify runs in a set taken from a spare list: it reads its body
// into the set's buffer, decodes its request there by hand (wire.go;
// a body of any other shape is encoding/json's), parses its two texts
// into the set's pair of ir.Copiers and writes its response from the
// set's buffer. Once the response is written the set goes back,
// released: the next verify runs in that memory. The list holds at
// most Workers sets, and a set keeps no buffer grown past 64 KiB; a
// request that finds none spare makes a set, and one that finds the
// list full drops its own. Nothing that outlives a request (a verdict,
// a cache entry, a store record) holds IR.
//
// Shutdown is a graceful drain: cancel the context passed to Run and
// the server stops accepting, finishes in-flight requests (bounded by
// GracePeriod), waits for every request it admitted, and returns with
// no goroutine left behind. The owning command flushes oracle/cache
// stats afterwards.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/dataset"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// version identifies the serving build on /healthz. It tracks the PR
// sequence growing this repo, not an external release scheme.
const version = "0.9.0"

// Defaults for the zero Config.
const (
	DefaultQueueSize   = 256
	DefaultGracePeriod = 10 * time.Second
	// DefaultMaxTimeout caps client-supplied timeout_ms: without a cap
	// a huge value silently defeats the operator's DefaultTimeout and
	// pins a worker for as long as the client likes.
	DefaultMaxTimeout = 2 * time.Minute
	// maxBodyBytes bounds request bodies.
	maxBodyBytes = 1 << 20
	// retryAfter is advertised on shed responses.
	retryAfter = 1 * time.Second
	// evalMaxN bounds the per-request corpus size of /v1/evaluate
	// (corpus generation and evaluation are the service's most
	// expensive operations).
	evalMaxN = 512
	// corpusCacheBound caps the number of generated corpora kept for
	// /v1/evaluate, FIFO-evicted (each corpus is regenerated
	// deterministically from its (seed, n) key on demand).
	corpusCacheBound = 8
)

// Config sizes and wires a Server. Oracle is required; every other
// zero value is usable: default queue and worker sizing, an untrained
// base policy, no tracing.
type Config struct {
	// Workers bounds the number of requests executing at once (<= 0
	// selects runtime.NumCPU()); the rest wait for a slot.
	Workers int
	// QueueSize bounds the requests waiting for a slot (<= 0 selects
	// DefaultQueueSize). When that many wait, new requests are shed
	// with 429 + Retry-After.
	QueueSize int
	// DefaultTimeout is the per-request deadline applied when a
	// request carries no timeout_ms (0 = none). The deadline covers
	// queue wait plus execution.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-supplied timeout_ms (<= 0 selects
	// DefaultMaxTimeout): requests asking for more are clamped, and a
	// negative timeout_ms is rejected with 400 rather than silently
	// ignored.
	MaxTimeout time.Duration
	// GracePeriod bounds the drain after shutdown begins (<= 0
	// selects DefaultGracePeriod).
	GracePeriod time.Duration
	// Oracle answers all verification queries; it is required. A
	// *oracle.Stack — or any oracle.StatsSource — lights up the
	// oracle/vcache sections of /metrics.
	Oracle oracle.Oracle
	// Model is the trained policy behind /v1/optimize and
	// /v1/evaluate. nil means /v1/optimize uses the instcombine
	// reference pass and /v1/evaluate an untrained base policy —
	// mirroring the veriopt optimize CLI.
	Model *policy.Model
	// Obs receives one request-span event per handled request (nil =
	// no tracing).
	Obs *obs.Recorder
	// Role labels this process on /healthz: "worker" (the default) for
	// a plain serving process, "coordinator" for the cluster front.
	Role string
	// ExtraMetrics, when non-nil, appends additional Prometheus
	// exposition text to /metrics — the coordinator wires its
	// replica-aware cluster section through here. The context is the
	// scrape request's.
	ExtraMetrics func(ctx context.Context) string
}

// draining is Server.active's top bit: Run sets it once nothing more
// is accepted, and from then on a /v1/* request answers 503.
const draining = 1 << 62

// Server is the HTTP front-end. Construct with New; Run serves until
// the context ends.
type Server struct {
	cfg     Config
	oracle  oracle.Oracle
	evalPol *policy.Model
	// handler is the instrumented mux; it serves without Run too.
	handler http.Handler
	metrics *metricsRegistry

	// slots holds a token per /v1/* request executing. active counts
	// the requests admitted whose work is not done, waiting for a slot
	// or holding one, with the draining bit; idle closes when the last
	// of them is done after the bit is set.
	slots  chan struct{}
	active atomic.Int64
	idle   chan struct{}

	// spare holds released sets, for the next /v1/verify to run in
	// (handleVerify): up to Workers, the number of requests that
	// execute at once.
	spare chan *parsers

	corpusMu sync.Mutex
	corpora  map[corpusKey][]*dataset.Sample
	corpusQ  []corpusKey
}

type corpusKey struct {
	seed int64
	n    int
}

// New builds a server from cfg, applying defaults for unset fields.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.GracePeriod <= 0 {
		cfg.GracePeriod = DefaultGracePeriod
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.Role == "" {
		cfg.Role = "worker"
	}
	s := &Server{
		cfg:     cfg,
		oracle:  cfg.Oracle,
		evalPol: cfg.Model,
		metrics: newMetricsRegistry(),
		slots:   make(chan struct{}, cfg.Workers),
		spare:   make(chan *parsers, cfg.Workers),
		idle:    make(chan struct{}),
		corpora: make(map[corpusKey][]*dataset.Sample),
	}
	if s.evalPol == nil {
		// /v1/evaluate needs some policy to evaluate; an untrained
		// base model is the deterministic default (seed pinned so two
		// servers answer identically).
		s.evalPol = policy.New(policy.CapQwen3B, 42)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.instrument(mux)
	return s
}

// queueDepth reports the number of requests waiting for a slot.
func (s *Server) queueDepth() int {
	return max(0, int(s.active.Load()&^draining)-s.cfg.Workers)
}

// Run serves on ln until ctx ends, then drains gracefully: stop
// accepting, finish in-flight requests (bounded by GracePeriod), then
// answer 503 to any request still arriving and wait until the work of
// every request admitted before is done. A clean drain returns nil; an
// overrun grace period returns the shutdown error.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var err error
	select {
	case err = <-serveErr:
		// Listener failure: connections already open can still send
		// requests; they are answered 503.
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.GracePeriod)
		err = hs.Shutdown(sctx)
		cancel()
		<-serveErr // Serve has returned ErrServerClosed
	}
	if s.active.Add(draining) != draining {
		<-s.idle
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// admit counts a request in, or answers why not: 503 once the drain
// has begun, 429 when Workers requests execute and QueueSize more wait.
func (s *Server) admit() (refused int) {
	for {
		n := s.active.Load()
		switch {
		case n&draining != 0:
			return http.StatusServiceUnavailable
		case n >= int64(s.cfg.Workers+s.cfg.QueueSize):
			return http.StatusTooManyRequests
		}
		if s.active.CompareAndSwap(n, n+1) {
			return 0
		}
	}
}

// call runs fn on a slot it waits for, and counts the request out once
// fn is done; a panic in fn is a 500. A request keeps waiting past its
// deadline and then runs on the ended context: what fn answers to that
// is the response, and fn runs only on a slot. The wait ends because
// every slot taken is given back when its fn returns.
func (s *Server) call(ctx context.Context, rec *statusRecorder, fn func(ctx context.Context) (int, any)) (status int, body any) {
	t0 := time.Now()
	s.slots <- struct{}{}
	if rec != nil {
		rec.queueWait = time.Since(t0)
	}
	defer func() {
		<-s.slots
		if s.active.Add(-1) == draining {
			close(s.idle)
		}
		if p := recover(); p != nil {
			s.metrics.panics.Add(1)
			status = http.StatusInternalServerError
			body = errorResponse{Error: fmt.Sprintf("internal error: %v", p)}
		}
	}()
	return fn(ctx)
}

// corpus returns the deterministic corpus for (seed, n), generating
// and caching it on first use.
func (s *Server) corpus(seed int64, n int) ([]*dataset.Sample, error) {
	k := corpusKey{seed: seed, n: n}
	s.corpusMu.Lock()
	if c, ok := s.corpora[k]; ok {
		s.corpusMu.Unlock()
		return c, nil
	}
	s.corpusMu.Unlock()
	// Generation is expensive; run it outside the lock. Two racing
	// requests for the same key both generate; the first to store wins
	// and the other returns the stored corpus — they are identical by
	// construction.
	c, err := dataset.Generate(dataset.Config{Seed: seed, N: n})
	if err != nil {
		return nil, err
	}
	s.corpusMu.Lock()
	if _, ok := s.corpora[k]; !ok {
		for len(s.corpora) >= corpusCacheBound && len(s.corpusQ) > 0 {
			delete(s.corpora, s.corpusQ[0])
			s.corpusQ = s.corpusQ[1:]
		}
		s.corpora[k] = c
		s.corpusQ = append(s.corpusQ, k)
	} else {
		c = s.corpora[k]
	}
	s.corpusMu.Unlock()
	return c, nil
}
