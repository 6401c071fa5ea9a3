package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ScenarioLoad is the per-scenario slice of one mix run: how that IR
// family behaved under this traffic.
type ScenarioLoad struct {
	Scenario string `json:"scenario"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	Shed     int    `json:"shed"`
	// ClientErrors are 4xx (expected for malformed payloads),
	// ServerErrors 5xx (never expected), Transport client-side
	// failures.
	ClientErrors    int     `json:"client_errors"`
	ServerErrors    int     `json:"server_errors"`
	TransportErrors int     `json:"transport_errors"`
	Canceled        int     `json:"canceled"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	// RepeatRate is the fraction of this scenario's events whose
	// coalescing key already appeared in the stream — the traffic's
	// offered cache-hit opportunity. The measured server-wide hit
	// rate lives on the MixReport (per-scenario hits are not
	// separable from the server's global counters).
	RepeatRate float64 `json:"repeat_rate"`
}

// MixReport grades one mix run.
type MixReport struct {
	Mix      string  `json:"mix"`
	Requests int     `json:"requests"`
	WallMs   float64 `json:"wall_ms"`
	QPS      float64 `json:"qps"`

	OK              int `json:"ok"`
	Shed            int `json:"shed"`
	ClientErrors    int `json:"client_errors"`
	ServerErrors    int `json:"server_errors"`
	TransportErrors int `json:"transport_errors"`
	Canceled        int `json:"canceled"`

	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	// Server-side deltas over the run (scraped before/after).
	ShedRate      float64 `json:"shed_rate"`
	ServerHitRate float64 `json:"server_hit_rate"`
	PanicsDelta   uint64  `json:"panics_delta"`
	CacheQueries  uint64  `json:"cache_queries_delta"`

	Scenarios []ScenarioLoad `json:"scenarios"`

	SLO SLO `json:"slo"`
	// Violations is empty on a passing run; each entry names the SLO
	// clause broken and the measured value.
	Violations []string `json:"violations,omitempty"`
}

// Passed reports whether the run met its SLO.
func (r *MixReport) Passed() bool { return len(r.Violations) == 0 }

// buildReport aggregates a play call's results, grades them against
// the spec's SLO, and folds in the server-side counter delta.
func buildReport(spec Spec, results []Result, wall time.Duration, delta Counters) *MixReport {
	spec = spec.withDefaults()
	rep := &MixReport{
		Mix:           spec.Name,
		Requests:      len(results),
		WallMs:        float64(wall.Microseconds()) / 1000,
		ShedRate:      0,
		ServerHitRate: delta.HitRate(),
		PanicsDelta:   delta.Panics,
		CacheQueries:  delta.CacheQueries,
		SLO:           spec.SLO,
	}
	if wall > 0 {
		rep.QPS = float64(len(results)) / wall.Seconds()
	}
	byScenario := map[string]*ScenarioLoad{}
	lats := make([]time.Duration, 0, len(results))
	scLats := map[string][]time.Duration{}
	repeats := map[string]int{}
	for i := range results {
		r := &results[i]
		sc := byScenario[r.Scenario]
		if sc == nil {
			sc = &ScenarioLoad{Scenario: r.Scenario}
			byScenario[r.Scenario] = sc
		}
		sc.Requests++
		if r.Repeat {
			repeats[r.Scenario]++
		}
		switch {
		case r.TransportErr != "":
			rep.TransportErrors++
			sc.TransportErrors++
		case r.Shed:
			rep.Shed++
			sc.Shed++
		case r.Status >= 500:
			rep.ServerErrors++
			sc.ServerErrors++
		case r.Status >= 400:
			rep.ClientErrors++
			sc.ClientErrors++
		default:
			rep.OK++
			sc.OK++
			lats = append(lats, r.Latency)
			scLats[r.Scenario] = append(scLats[r.Scenario], r.Latency)
		}
		if r.Canceled {
			rep.Canceled++
			sc.Canceled++
		}
	}
	rep.P50Ms, rep.P99Ms = quantilesMs(lats)
	names := make([]string, 0, len(byScenario))
	for n := range byScenario {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sc := byScenario[n]
		sc.P50Ms, sc.P99Ms = quantilesMs(scLats[n])
		if sc.Requests > 0 {
			sc.RepeatRate = float64(repeats[n]) / float64(sc.Requests)
		}
		rep.Scenarios = append(rep.Scenarios, *sc)
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	rep.Violations = evaluateSLO(spec.SLO, rep)
	return rep
}

// evaluateSLO turns the measured run into a list of broken clauses.
func evaluateSLO(slo SLO, r *MixReport) []string {
	var v []string
	if r.ShedRate > slo.MaxShedRate {
		v = append(v, fmt.Sprintf("shed rate %.3f > max %.3f", r.ShedRate, slo.MaxShedRate))
	}
	if r.ServerErrors > slo.MaxServerErrors {
		v = append(v, fmt.Sprintf("server errors %d > max %d", r.ServerErrors, slo.MaxServerErrors))
	}
	if int(r.PanicsDelta) > slo.MaxPanics {
		v = append(v, fmt.Sprintf("server panics %d > max %d", r.PanicsDelta, slo.MaxPanics))
	}
	if r.TransportErrors > slo.MaxTransportErrors {
		v = append(v, fmt.Sprintf("transport errors %d > max %d", r.TransportErrors, slo.MaxTransportErrors))
	}
	if slo.MinHitRate > 0 && r.ServerHitRate < slo.MinHitRate {
		v = append(v, fmt.Sprintf("cache hit rate %.3f < min %.3f", r.ServerHitRate, slo.MinHitRate))
	}
	if slo.MaxP99Ms > 0 && r.P99Ms > slo.MaxP99Ms {
		v = append(v, fmt.Sprintf("p99 %.1fms > max %.1fms", r.P99Ms, slo.MaxP99Ms))
	}
	if slo.MinCanceledFrac > 0 && r.Requests > 0 {
		frac := float64(r.Canceled) / float64(r.Requests)
		if frac < slo.MinCanceledFrac {
			v = append(v, fmt.Sprintf("canceled fraction %.3f < min %.3f (deadlines are not tripping)", frac, slo.MinCanceledFrac))
		}
	}
	return v
}

// String renders the report for terminal output.
func (r *MixReport) String() string {
	var sb strings.Builder
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(&sb, "mix %-15s %s  n=%d qps=%.0f p50=%.1fms p99=%.1fms shed=%.1f%% hit=%.0f%% 5xx=%d panics=%d canceled=%d\n",
		r.Mix, status, r.Requests, r.QPS, r.P50Ms, r.P99Ms, 100*r.ShedRate, 100*r.ServerHitRate,
		r.ServerErrors, r.PanicsDelta, r.Canceled)
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&sb, "  %-14s n=%-4d ok=%-4d p50=%.1fms p99=%.1fms shed=%d 4xx=%d 5xx=%d repeat=%.0f%%\n",
			sc.Scenario, sc.Requests, sc.OK, sc.P50Ms, sc.P99Ms, sc.Shed, sc.ClientErrors, sc.ServerErrors, 100*sc.RepeatRate)
	}
	for _, viol := range r.Violations {
		fmt.Fprintf(&sb, "  SLO VIOLATION: %s\n", viol)
	}
	return sb.String()
}

// BenchOut is the report document `loadgen -out` writes: one run of
// several mixes against one target.
type BenchOut struct {
	GeneratedUnixMilli int64        `json:"generated_unix_milli"`
	Target             string       `json:"target"`
	Mixes              []*MixReport `json:"mixes"`
}

// Passed reports whether every mix met its SLO.
func (b *BenchOut) Passed() bool {
	for _, m := range b.Mixes {
		if !m.Passed() {
			return false
		}
	}
	return true
}

func quantilesMs(lats []time.Duration) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	toMs := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return toMs(sorted[len(sorted)/2]), toMs(sorted[(len(sorted)*99)/100])
}
