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
// Requests flow through one bounded work queue drained by a par.For
// worker pool. A full queue sheds load with 429 + Retry-After instead
// of spawning unbounded goroutines; a draining queue answers 503.
// Per-request deadlines (the default or a request's timeout_ms) map
// to context cancellation, so the end-to-end cancellation plumbing —
// alive, vcache, the oracle stack — is exercised on every timeout.
// Identical in-flight verify queries coalesce through the verdict
// cache's singleflight.
//
// Shutdown is a graceful drain: cancel the context passed to Run and
// the server stops accepting, finishes in-flight requests (bounded by
// GracePeriod), drains the queue, and returns with no goroutine left
// behind. The owning command flushes oracle/cache stats afterwards.
package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"veriopt/internal/dataset"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
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

// Config sizes and wires a Server. The zero value is usable: default
// queue and worker sizing, the process-wide oracle stack, an
// untrained base policy, no tracing.
type Config struct {
	// Workers is the queue worker count (<= 0 selects
	// runtime.NumCPU()). It bounds the number of requests executing
	// concurrently; everything beyond it waits in the queue.
	Workers int
	// QueueSize bounds the work queue (<= 0 selects
	// DefaultQueueSize). When the queue is full new requests are shed
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
	// Oracle answers all verification queries (nil selects the shared
	// oracle.Default() stack). Supply a *oracle.Stack — or any
	// oracle.StatsSource — to light up the oracle/vcache sections of
	// /metrics.
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
	// replica-aware cluster section through here. The context bounds
	// any scraping the callback performs.
	ExtraMetrics func(ctx context.Context) string
}

// job is one queued unit of request work. run executes in a queue
// worker and must write its outcome into variables the enqueuing
// handler can read after done closes.
type job struct {
	run  func()
	done chan struct{}
}

type enqueueOutcome int

const (
	enqueued enqueueOutcome = iota
	queueFull
	queueDraining
)

// Server is the HTTP front-end. Construct with New; Run starts the
// worker pool and serves until the context ends.
type Server struct {
	cfg     Config
	oracle  oracle.Oracle
	evalPol *policy.Model
	// handler is the instrumented mux. The queued endpoints (/v1/*)
	// only make progress while Run's worker pool drains the queue;
	// /healthz and /metrics answer inline.
	handler http.Handler
	metrics *metricsRegistry

	queue   chan *job
	qmu     sync.RWMutex
	qclosed bool

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
		oracle:  oracle.OrDefault(cfg.Oracle),
		evalPol: cfg.Model,
		metrics: newMetricsRegistry(),
		queue:   make(chan *job, cfg.QueueSize),
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

// queueDepth reports the number of queued-but-unstarted jobs.
func (s *Server) queueDepth() int { return len(s.queue) }

// Run serves on ln until ctx ends, then drains gracefully: stop
// accepting, finish in-flight requests (bounded by GracePeriod),
// drain the queue, stop the workers. All server goroutines have
// exited when Run returns. A clean drain returns nil; an overrun
// grace period returns the shutdown error.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.handler}
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		// The pool ignores ctx deliberately: workers must keep
		// draining queued jobs during shutdown so no handler is left
		// waiting on a job that will never run. They exit when the
		// queue is closed and empty.
		par.For(context.Background(), s.cfg.Workers, s.cfg.Workers, func(int) {
			for j := range s.queue {
				j.run()
				close(j.done)
			}
		})
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var err error
	select {
	case err = <-serveErr:
		// Listener failure: nothing is accepting, so no handler can
		// enqueue after this point.
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.GracePeriod)
		err = hs.Shutdown(sctx)
		cancel()
		<-serveErr // Serve has returned ErrServerClosed
	}
	s.closeQueue()
	<-workersDone
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// enqueue offers j to the work queue without blocking.
func (s *Server) enqueue(j *job) enqueueOutcome {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.qclosed {
		return queueDraining
	}
	select {
	case s.queue <- j:
		return enqueued
	default:
		return queueFull
	}
}

// closeQueue marks the queue closed for enqueue and lets the workers
// drain what remains. Idempotent.
func (s *Server) closeQueue() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if !s.qclosed {
		s.qclosed = true
		close(s.queue)
	}
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
	// requests for the same key both generate, the second store wins —
	// the corpora are identical by construction.
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
