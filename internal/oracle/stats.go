package oracle

import (
	"fmt"
	"sync/atomic"
	"time"

	"veriopt/internal/alive"
)

// Stats is a point-in-time snapshot of a StatsCollector.
type Stats struct {
	// Queries counts every query the stack was asked.
	Queries uint64
	// ByVerdict counts results per verdict category, indexed by
	// alive.Verdict.
	ByVerdict [4]uint64
	// ByReason counts results per alive.Reason, indexed by it (the
	// NoReason slot counts the verdicts that are not Inconclusive).
	ByReason [6]uint64
	// Wall is cumulative time spent answering, summed across
	// workers.
	Wall time.Duration
}

// Counters returns the snapshot's monotonic counters under stable
// snake_case names ("queries", the alive.Verdict names and the
// alive.Reason ones) for metrics exporters (the serving layer's
// Prometheus endpoint, obs event fields). Wall is excluded: exporters
// publish it separately as a seconds total.
func (s Stats) Counters() map[string]uint64 {
	out := map[string]uint64{"queries": s.Queries}
	for i, n := range s.ByVerdict {
		out[alive.Verdict(i).String()] = n
	}
	for r := alive.NoReason + 1; int(r) < len(s.ByReason); r++ {
		out[r.String()] = s.ByReason[r]
	}
	return out
}

// String renders the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("oracle: %d queries (%d equivalent, %d semantic, %d syntax, %d inconclusive, %d canceled), %v wall",
		s.Queries,
		s.ByVerdict[alive.Equivalent], s.ByVerdict[alive.SemanticError],
		s.ByVerdict[alive.SyntaxError], s.ByVerdict[alive.Inconclusive],
		s.ByReason[alive.Canceled], s.Wall.Round(time.Millisecond))
}

// StatsCollector accumulates per-verdict counters; safe for
// concurrent use. The zero value is ready.
type StatsCollector struct {
	queries   atomic.Uint64
	byVerdict [4]atomic.Uint64
	byReason  [6]atomic.Uint64
	wallNanos atomic.Int64
}

// Snapshot returns the current counter values.
func (c *StatsCollector) Snapshot() Stats {
	s := Stats{
		Queries: c.queries.Load(),
		Wall:    time.Duration(c.wallNanos.Load()),
	}
	for i := range s.ByVerdict {
		s.ByVerdict[i] = c.byVerdict[i].Load()
	}
	for i := range s.ByReason {
		s.ByReason[i] = c.byReason[i].Load()
	}
	return s
}

// count records one answered query: its verdict category and the
// wall time spent answering it. The counters cover cache hits too —
// they are the per-query verdict distribution, not the solver workload
// (the cache engine's own stats cover that).
func (c *StatsCollector) count(res alive.Result, wall time.Duration) {
	c.wallNanos.Add(int64(wall))
	if res.Verdict >= 0 && int(res.Verdict) < len(c.byVerdict) {
		c.byVerdict[res.Verdict].Add(1)
	}
	c.byReason[res.Reason()].Add(1)
}
