// Package obs is the structured-observability core: run events are
// emitted as JSON lines (one object per line) so a curriculum run,
// an evaluation, or a CLI invocation can be traced, tailed, and
// post-processed without scraping log text. The pipeline emits
// stage_start/stage_end events with wall time, verdict-category
// counters, cache hit/miss deltas, and reward-distribution summaries;
// cmd/veriopt wires a Recorder behind its -trace flag.
//
// A nil *Recorder is a valid no-op sink, so instrumented code paths
// never need to guard their emit calls.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/vcache"
)

// Event is one JSON-lines record. Kind is always set; the remaining
// fields are populated per kind and omitted when empty, so consumers
// can switch on kind and read only the sections they know.
type Event struct {
	// Seq is a per-recorder monotonically increasing sequence number.
	Seq uint64 `json:"seq"`
	// ElapsedMs is milliseconds since the recorder was created.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Kind names the event: run_start, stage_start, stage_end, eval,
	// run_end, interrupted, request (one serving-layer request span;
	// see RequestEvent), replica_down/replica_up (a cluster replica's
	// health; see ClusterEvent), ...
	Kind string `json:"kind"`
	// Stage names the curriculum stage, evaluation target, or — for
	// request events — the endpoint path.
	Stage string `json:"stage,omitempty"`
	// Steps is the number of optimization steps a stage ran.
	Steps int `json:"steps,omitempty"`
	// WallMs is the wall-clock duration of the spanned work.
	WallMs float64 `json:"wall_ms,omitempty"`
	// Verdicts counts results per verdict-category name.
	Verdicts map[string]uint64 `json:"verdicts,omitempty"`
	// Cache carries verdict-cache hit/miss numbers.
	Cache *CacheStats `json:"cache,omitempty"`
	// Reward summarizes a reward series.
	Reward *Summary `json:"reward,omitempty"`
	// Note is a free-form human-readable annotation.
	Note string `json:"note,omitempty"`
	// Fields holds any additional named numbers.
	Fields map[string]float64 `json:"fields,omitempty"`
}

// CacheStats is the cache section of an event — typically a delta
// over the spanned interval, not process-lifetime totals.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions,omitempty"`
	Canceled  uint64 `json:"canceled,omitempty"`
}

// Summary is a compact distribution of a float series.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	Last  float64 `json:"last"`
}

// Summarize builds a Summary of series, or nil for an empty series.
func Summarize(series []float64) *Summary {
	if len(series) == 0 {
		return nil
	}
	s := &Summary{Count: len(series), Min: math.Inf(1), Max: math.Inf(-1), Last: series[len(series)-1]}
	sorted := append([]float64(nil), series...)
	sort.Float64s(sorted)
	for _, v := range series {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(series))
	s.P50 = sorted[len(sorted)/2]
	return s
}

// Recorder serializes events to a writer as JSON lines. All methods
// are safe for concurrent use and safe on a nil receiver (no-op), so
// instrumentation can be left in place unconditionally.
type Recorder struct {
	mu    sync.Mutex
	w     io.Writer
	seq   uint64
	start time.Time
}

// New builds a recorder writing to w. Events carry elapsed times
// relative to this call.
func New(w io.Writer) *Recorder {
	return &Recorder{w: w, start: time.Now()}
}

// Emit stamps and writes one event. Serialization errors are
// swallowed: tracing must never take down the run it observes.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	ev.ElapsedMs = float64(time.Since(r.start).Microseconds()) / 1000
	blob, err := json.Marshal(ev)
	if err != nil {
		return
	}
	r.w.Write(append(blob, '\n'))
}

// RequestEvent builds the serving layer's per-request span event: one
// "request" record per handled HTTP request, carrying the endpoint
// path as the stage, the response status and queue wait under Fields,
// and the end-to-end wall time. Emitted by internal/server after the
// response is written, so WallMs includes queue wait, verification,
// and serialization.
func RequestEvent(endpoint string, status int, queueWait, wall time.Duration) Event {
	return Event{
		Kind:   "request",
		Stage:  endpoint,
		WallMs: float64(wall.Microseconds()) / 1000,
		Fields: map[string]float64{
			"status":        float64(status),
			"queue_wait_ms": float64(queueWait.Microseconds()) / 1000,
		},
	}
}

// ClusterEvent builds a coordinator replica-lifecycle event: kind is
// "replica_down" or "replica_up", the replica's base URL rides in
// Stage, and the healthy/total replica counts after the transition in
// Fields. Emitted by internal/cluster when traffic errors demote a
// replica or a health probe restores one, so an operator tailing the
// trace sees replica health change without scraping /metrics.
func ClusterEvent(kind, replica string, healthy, total int, note string) Event {
	return Event{
		Kind:  kind,
		Stage: replica,
		Note:  note,
		Fields: map[string]float64{
			"healthy_replicas": float64(healthy),
			"total_replicas":   float64(total),
		},
	}
}

// Delta returns a cache engine's counters over an interval as an
// event's two sections: the answers per verdict category, under the
// alive.Verdict names (nil when none was answered), and the cache's
// hits, misses, evictions and canceled queries (nil when none landed).
func Delta(before, after vcache.Stats) (verdicts map[string]uint64, cache *CacheStats) {
	if after.ByVerdict != before.ByVerdict {
		verdicts = make(map[string]uint64, len(after.ByVerdict))
		for i, n := range after.ByVerdict {
			verdicts[alive.Verdict(i).String()] = n - before.ByVerdict[i]
		}
	}
	c := CacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Canceled:  after.Canceled - before.Canceled,
	}
	if c == (CacheStats{}) {
		return verdicts, nil
	}
	return verdicts, &c
}
