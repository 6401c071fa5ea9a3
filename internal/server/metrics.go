package server

import (
	"io"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/metrics"
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
	// requests counts completed requests per (endpoint, status code);
	// an endpoint's request count is their sum over codes.
	requests map[reqKey]uint64
	// latSum accumulates end-to-end request seconds per endpoint
	// (queue wait included).
	latSum map[string]float64

	shed atomic.Uint64
	// panics counts handler panics Server.call recovered;
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
	}
}

func (m *metricsRegistry) observe(endpoint string, code int, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	m.latSum[endpoint] += wall.Seconds()
}

// snapshot copies the counters out under the lock so rendering (string
// formatting, sorting, writing) never blocks request accounting.
func (m *metricsRegistry) snapshot() (requests map[reqKey]uint64, latSum map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.requests), maps.Clone(m.latSum)
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

// statusRecorder captures the response code written by a handler, and
// the time a /v1/* request waited for a slot (Server.call writes it).
type statusRecorder struct {
	http.ResponseWriter
	code      int
	queueWait time.Duration
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
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		wall := time.Since(t0)
		s.metrics.observe(endpoint, rec.code, wall)
		if s.cfg.Obs != nil {
			s.cfg.Obs.Emit(obs.RequestEvent(endpoint, rec.code, rec.queueWait, wall))
		}
	})
}

// handleMetrics answers a scrape: serving-layer counters (requests,
// sheds, latency sums, queue depth), plus the oracle stack's verdict
// counters, the verdict cache's counters and hit rate, and the
// verdict store's, when the configured oracle exposes them.
// internal/metrics owns the text format; Config.ExtraMetrics is
// appended verbatim.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	requests, latSum := s.metrics.snapshot()

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
	reqs := metrics.Family{Name: "veriopt_requests_total", Type: "counter",
		Help: "Completed HTTP requests by endpoint and status code."}
	latCount := make(map[string]uint64, len(latSum))
	for _, k := range keys {
		reqs.Samples = append(reqs.Samples, metrics.Sample{Value: metrics.Int(requests[k]),
			Labels: []metrics.Label{{"endpoint", k.endpoint}, {"code", strconv.Itoa(k.code)}}})
		latCount[k.endpoint] += requests[k]
	}
	eps := make([]string, 0, len(latSum))
	for ep := range latSum {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	lat := metrics.Family{Name: "veriopt_request_seconds", Type: "summary",
		Help: "End-to-end request latency sums (queue wait included)."}
	for _, ep := range eps {
		l := []metrics.Label{{"endpoint", ep}}
		lat.Samples = append(lat.Samples,
			metrics.Sample{Suffix: "_sum", Labels: l, Value: metrics.Float(latSum[ep])},
			metrics.Sample{Suffix: "_count", Labels: l, Value: metrics.Int(latCount[ep])})
	}

	fams := []metrics.Family{reqs, lat,
		metrics.Scalar("veriopt_requests_shed_total", "Requests shed with 429 because QueueSize requests were already waiting for a slot.", "counter", metrics.Int(s.metrics.shed.Load())),
		metrics.Scalar("veriopt_panics_total", "Handler panics recovered while serving a request (any value > 0 is a bug).", "counter", metrics.Int(s.metrics.panics.Load())),
		metrics.Scalar("veriopt_queue_depth", "Admitted requests waiting for one of the Workers slots.", "gauge", metrics.Int(s.queueDepth())),
		metrics.Scalar("veriopt_queue_capacity", "Bound on the requests waiting for a slot (QueueSize).", "gauge", metrics.Int(s.cfg.QueueSize)),
	}
	if src, ok := s.oracle.(oracle.StatsSource); ok {
		ostats, cstats := src.OracleStats()
		fams = append(fams,
			metrics.Counters("veriopt_oracle_total", "Oracle-stack query counters by category (verdict names, queries, canceled).", cstats.Verdicts()),
			metrics.Scalar("veriopt_oracle_wall_seconds_total", "Cumulative verification wall time, summed across workers.", "counter", metrics.Float(ostats.Wall.Seconds())),
			metrics.Counters("veriopt_vcache_total", "Verdict-cache counters (queries, hits, misses, evictions, promotions, demotions, store_errors, budget_exhausted, solver_conflicts, canceled).", cstats.Counters()),
			metrics.Scalar("veriopt_vcache_hit_rate", "Hits over queries since process start.", "gauge", metrics.Float(cstats.HitRate())),
			metrics.Scalar("veriopt_vcache_entries", "Current cache population.", "gauge", metrics.Int(cstats.Entries)),
			metrics.Scalar("veriopt_vcache_wall_seconds_total", "Cumulative live solver wall time, summed across workers.", "counter", metrics.Float(cstats.WallTime.Seconds())))
	}
	if src, ok := s.oracle.(oracle.StoreSource); ok {
		if st := src.VStore(); st != nil {
			ss := st.Stats()
			fams = append(fams,
				metrics.Counters("veriopt_vstore_total", "Verdict-store counters (appends, appended_bytes, gets, hits, misses, syncs, truncated_tails).", ss.Counters()),
				metrics.Scalar("veriopt_vstore_segments", "Segment files in the store.", "gauge", metrics.Int(ss.Segments)),
				metrics.Scalar("veriopt_vstore_entries", "Live records indexed by the store.", "gauge", metrics.Int(ss.Entries)),
				metrics.Scalar("veriopt_vstore_live_bytes", "On-disk bytes holding current verdicts.", "gauge", metrics.Int(ss.LiveBytes)))
		}
	}
	extra := ""
	if s.cfg.ExtraMetrics != nil {
		extra = s.cfg.ExtraMetrics(r.Context())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.Write(w, fams) // a failed write is a scraper that went away
	io.WriteString(w, extra)
}
