package cluster

import (
	"context"
	"strings"

	"veriopt/internal/metrics"
)

// MetricsText renders the coordinator's Prometheus section from its
// own state: replica and health gauges and per-replica traffic counters.
// It sends nothing to the fleet; each worker's oracle, cache and store
// counters are on that worker's own /metrics. The context is unused;
// it gives the method server.Config.ExtraMetrics' signature, through
// which the serving layer appends the section.
func (c *Coordinator) MetricsText(context.Context) string {
	fams := []metrics.Family{
		metrics.Scalar("veriopt_cluster_replicas", "Configured worker replicas.", "gauge", metrics.Int(len(c.reps))),
		metrics.Scalar("veriopt_cluster_replicas_healthy", "Replicas currently marked healthy.", "gauge", metrics.Int(c.healthyCount())),
	}
	up := func(r *replica) uint64 {
		if r.healthy.Load() {
			return 1
		}
		return 0
	}
	for _, fam := range []struct {
		name, typ, help string
		read            func(r *replica) uint64
	}{
		{"veriopt_cluster_requests_total", "counter", "Attempts dispatched per replica (primaries and retries).", func(r *replica) uint64 { return r.requests.Load() }},
		{"veriopt_cluster_errors_total", "counter", "Failed attempts per replica.", func(r *replica) uint64 { return r.errors.Load() }},
		{"veriopt_cluster_retries_total", "counter", "Failure re-routes landing on this replica.", func(r *replica) uint64 { return r.retries.Load() }},
		{"veriopt_cluster_replica_up", "gauge", "Per-replica health (1 healthy, 0 demoted).", up},
	} {
		f := metrics.Family{Name: fam.name, Help: fam.help, Type: fam.typ}
		for _, rep := range c.reps {
			f.Samples = append(f.Samples, metrics.Sample{Labels: []metrics.Label{{"replica", rep.url}}, Value: metrics.Int(fam.read(rep))})
		}
		fams = append(fams, f)
	}

	var b strings.Builder
	metrics.Write(&b, fams)
	return b.String()
}
