package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/ckpt"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
)

// metricsRegistry accumulates the serving-layer counters exposed by
// /metrics. Oracle and cache counters are not duplicated here: they
// are scraped live from the oracle stack's StatsSource at render
// time, so /metrics always reflects the same numbers the CLIs print
// on exit.
type metricsRegistry struct {
	mu sync.Mutex
	// requests counts completed requests per (endpoint, status code).
	requests map[reqKey]uint64
	// latSum/latCount accumulate end-to-end request seconds per
	// endpoint (queue wait included).
	latSum   map[string]float64
	latCount map[string]uint64

	shed atomic.Uint64
	// panics counts handler panics recovered by the queue workers;
	// anything non-zero is a bug, surfaced on /metrics so load
	// harnesses can assert on it.
	panics atomic.Uint64
}

type reqKey struct {
	endpoint string
	code     int
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests: make(map[reqKey]uint64),
		latSum:   make(map[string]float64),
		latCount: make(map[string]uint64),
	}
}

func (m *metricsRegistry) observe(endpoint string, code int, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	m.latSum[endpoint] += wall.Seconds()
	m.latCount[endpoint]++
}

// snapshot copies the counters out under the lock so rendering (string
// formatting, sorting, writing) never blocks request accounting.
func (m *metricsRegistry) snapshot() (requests map[reqKey]uint64, latSum map[string]float64, latCount map[string]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	requests = make(map[reqKey]uint64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	latSum = make(map[string]float64, len(m.latSum))
	for k, v := range m.latSum {
		latSum[k] = v
	}
	latCount = make(map[string]uint64, len(m.latCount))
	for k, v := range m.latCount {
		latCount[k] = v
	}
	return requests, latSum, latCount
}

// instrumented endpoints, the bounded label set for request metrics;
// anything else (404s, bad methods) lands under "other".
var knownEndpoints = map[string]bool{
	"/v1/verify":   true,
	"/v1/optimize": true,
	"/v1/evaluate": true,
	"/healthz":     true,
	"/metrics":     true,
}

// reqSpan carries per-request measurements from the queue worker back
// to the instrumentation middleware.
type reqSpan struct {
	queueWait time.Duration
}

type spanCtxKey struct{}

func spanOf(ctx context.Context) *reqSpan {
	s, _ := ctx.Value(spanCtxKey{}).(*reqSpan)
	return s
}

// statusRecorder captures the response code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with request accounting: per-endpoint
// counters and latency sums for /metrics, and one obs request-span
// event per handled request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := r.URL.Path
		if !knownEndpoints[endpoint] {
			endpoint = "other"
		}
		span := &reqSpan{}
		r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, span))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		wall := time.Since(t0)
		s.metrics.observe(endpoint, rec.code, wall)
		s.cfg.Obs.Emit(obs.RequestEvent(endpoint, rec.code, span.queueWait, wall))
	})
}

// handleMetrics renders the Prometheus text exposition format:
// serving-layer counters (requests, sheds, latency sums, queue
// depth), plus the oracle stack's verdict counters and the verdict
// cache's hit/miss/eviction counters and hit rate when the configured
// oracle exposes them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	requests, latSum, latCount := s.metrics.snapshot()

	b.WriteString("# HELP veriopt_requests_total Completed HTTP requests by endpoint and status code.\n")
	b.WriteString("# TYPE veriopt_requests_total counter\n")
	keys := make([]reqKey, 0, len(requests))
	for k := range requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "veriopt_requests_total{endpoint=%q,code=\"%d\"} %d\n",
			k.endpoint, k.code, requests[k])
	}
	b.WriteString("# HELP veriopt_request_seconds End-to-end request latency sums (queue wait included).\n")
	b.WriteString("# TYPE veriopt_request_seconds summary\n")
	eps := make([]string, 0, len(latCount))
	for ep := range latCount {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		fmt.Fprintf(&b, "veriopt_request_seconds_sum{endpoint=%q} %g\n", ep, latSum[ep])
		fmt.Fprintf(&b, "veriopt_request_seconds_count{endpoint=%q} %d\n", ep, latCount[ep])
	}

	b.WriteString("# HELP veriopt_requests_shed_total Requests shed with 429 because the work queue was full.\n")
	b.WriteString("# TYPE veriopt_requests_shed_total counter\n")
	fmt.Fprintf(&b, "veriopt_requests_shed_total %d\n", s.metrics.shed.Load())

	b.WriteString("# HELP veriopt_panics_total Handler panics recovered by queue workers (any value > 0 is a bug).\n")
	b.WriteString("# TYPE veriopt_panics_total counter\n")
	fmt.Fprintf(&b, "veriopt_panics_total %d\n", s.metrics.panics.Load())

	b.WriteString("# HELP veriopt_queue_depth Queued-but-unstarted jobs.\n")
	b.WriteString("# TYPE veriopt_queue_depth gauge\n")
	fmt.Fprintf(&b, "veriopt_queue_depth %d\n", s.QueueDepth())
	b.WriteString("# HELP veriopt_queue_capacity Work-queue bound.\n")
	b.WriteString("# TYPE veriopt_queue_capacity gauge\n")
	fmt.Fprintf(&b, "veriopt_queue_capacity %d\n", s.cfg.QueueSize)

	b.WriteString("# HELP veriopt_ckpt_total Training-checkpoint counters (checkpoints written, entries loaded, restore errors) since process start.\n")
	b.WriteString("# TYPE veriopt_ckpt_total counter\n")
	writeCounters(&b, "veriopt_ckpt_total", ckpt.Counters())

	if src, ok := s.oracle.(oracle.StatsSource); ok {
		ostats, cstats := src.OracleStats()
		b.WriteString("# HELP veriopt_oracle_total Oracle-stack query counters by category (verdict names, queries, canceled).\n")
		b.WriteString("# TYPE veriopt_oracle_total counter\n")
		writeCounters(&b, "veriopt_oracle_total", ostats.Counters())
		b.WriteString("# HELP veriopt_oracle_wall_seconds_total Cumulative verification wall time, summed across workers.\n")
		b.WriteString("# TYPE veriopt_oracle_wall_seconds_total counter\n")
		fmt.Fprintf(&b, "veriopt_oracle_wall_seconds_total %g\n", ostats.Wall.Seconds())

		b.WriteString("# HELP veriopt_vcache_total Verdict-cache counters (queries, hits, misses, evictions, promotions, demotions, store_errors, budget_exhausted, solver_conflicts, canceled).\n")
		b.WriteString("# TYPE veriopt_vcache_total counter\n")
		writeCounters(&b, "veriopt_vcache_total", cstats.Counters())
		b.WriteString("# HELP veriopt_vcache_hit_rate Hits over queries since process start.\n")
		b.WriteString("# TYPE veriopt_vcache_hit_rate gauge\n")
		fmt.Fprintf(&b, "veriopt_vcache_hit_rate %g\n", cstats.HitRate())
		b.WriteString("# HELP veriopt_vcache_entries Current cache population.\n")
		b.WriteString("# TYPE veriopt_vcache_entries gauge\n")
		fmt.Fprintf(&b, "veriopt_vcache_entries %d\n", cstats.Entries)
		b.WriteString("# HELP veriopt_vcache_wall_seconds_total Cumulative live solver wall time, summed across workers.\n")
		b.WriteString("# TYPE veriopt_vcache_wall_seconds_total counter\n")
		fmt.Fprintf(&b, "veriopt_vcache_wall_seconds_total %g\n", cstats.WallTime.Seconds())
	}

	if src, ok := s.oracle.(oracle.StoreSource); ok {
		if st := src.VStore(); st != nil {
			ss := st.Stats()
			b.WriteString("# HELP veriopt_vstore_total Verdict-store counters (appends, gets, hits, misses, syncs, compactions, reclaimed_bytes, truncated_tails, ...).\n")
			b.WriteString("# TYPE veriopt_vstore_total counter\n")
			writeCounters(&b, "veriopt_vstore_total", ss.Counters())
			b.WriteString("# HELP veriopt_vstore_segments Segment files in the store.\n")
			b.WriteString("# TYPE veriopt_vstore_segments gauge\n")
			fmt.Fprintf(&b, "veriopt_vstore_segments %d\n", ss.Segments)
			b.WriteString("# HELP veriopt_vstore_entries Live records indexed by the store.\n")
			b.WriteString("# TYPE veriopt_vstore_entries gauge\n")
			fmt.Fprintf(&b, "veriopt_vstore_entries %d\n", ss.Entries)
			b.WriteString("# HELP veriopt_vstore_live_bytes On-disk bytes holding current verdicts.\n")
			b.WriteString("# TYPE veriopt_vstore_live_bytes gauge\n")
			fmt.Fprintf(&b, "veriopt_vstore_live_bytes %d\n", ss.LiveBytes)
			b.WriteString("# HELP veriopt_vstore_dead_bytes On-disk bytes awaiting compaction (superseded records, tombstones).\n")
			b.WriteString("# TYPE veriopt_vstore_dead_bytes gauge\n")
			fmt.Fprintf(&b, "veriopt_vstore_dead_bytes %d\n", ss.DeadBytes)
			b.WriteString("# HELP veriopt_vstore_compact_pause_seconds_total Cumulative writer-visible compaction pause.\n")
			b.WriteString("# TYPE veriopt_vstore_compact_pause_seconds_total counter\n")
			fmt.Fprintf(&b, "veriopt_vstore_compact_pause_seconds_total %g\n", ss.CompactPause.Seconds())
		}
	}

	if s.cfg.ExtraMetrics != nil {
		b.WriteString(s.cfg.ExtraMetrics(r.Context()))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// writeCounters renders a name→value map as one labeled metric family
// in sorted label order.
func writeCounters(b *strings.Builder, family string, counters map[string]uint64) {
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "%s{counter=%q} %d\n", family, n, counters[n])
	}
}
