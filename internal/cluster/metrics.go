package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"veriopt/internal/metrics"
)

// scrapeTimeout bounds the merged worker /metrics scrape so a stuck
// replica cannot hang the coordinator's own /metrics endpoint.
const scrapeTimeout = 500 * time.Millisecond

// mergedFamilies are the worker counter families the coordinator
// sums across the fleet and re-exports under a veriopt_cluster_
// prefix, so one scrape of the coordinator shows cluster-wide oracle,
// cache, and store totals.
var mergedFamilies = []string{
	"veriopt_oracle_total",
	"veriopt_vcache_total",
	"veriopt_vstore_total",
}

// MetricsText renders the coordinator's Prometheus section: ring and
// health gauges, per-replica traffic counters, and — scraped live from
// the healthy replicas under ctx — the fleet's merged
// oracle/vcache/vstore counters and summed queue depth. Wire it into
// the serving layer via server.Config.ExtraMetrics.
func (c *Coordinator) MetricsText(ctx context.Context) string {
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

	// The merged scrape: each healthy replica's /metrics, fetched in
	// parallel and parsed; a replica that does not answer in full
	// within the scrape timeout is skipped, never waited on past it.
	sctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	scrapes := make([]metrics.Scrape, len(c.reps))
	var wg sync.WaitGroup
	for i, rep := range c.reps {
		if !rep.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			scrapes[i] = scrapeReplica(sctx, rep)
		}(i, rep)
	}
	wg.Wait()

	merged := make(map[string]map[string]uint64)
	for _, fam := range mergedFamilies {
		merged[fam] = make(map[string]uint64)
	}
	var scraped, qdepth uint64
	for _, s := range scrapes {
		if s == nil {
			continue
		}
		scraped++
		qdepth += s.Uint("veriopt_queue_depth")
		for _, fam := range mergedFamilies {
			for name, n := range s.Labeled(fam, "counter") {
				merged[fam][name] += n
			}
		}
	}
	fams = append(fams,
		metrics.Scalar("veriopt_cluster_workers_scraped", "Replicas whose /metrics answered within the scrape timeout.", "gauge", metrics.Int(scraped)),
		metrics.Scalar("veriopt_cluster_workers_queue_depth", "Requests waiting for a slot, summed across scraped replicas.", "gauge", metrics.Int(qdepth)))
	for _, fam := range mergedFamilies {
		if len(merged[fam]) > 0 {
			fams = append(fams, metrics.Counters("veriopt_cluster_"+strings.TrimPrefix(fam, "veriopt_"),
				fam+" summed across scraped replicas.", merged[fam]))
		}
	}

	var b strings.Builder
	metrics.Write(&b, fams)
	return b.String()
}

// scrapeReplica fetches and parses one replica's /metrics; nil means
// it did not answer 200 with a readable body.
func scrapeReplica(ctx context.Context, rep *replica) metrics.Scrape {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		return nil
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	s, err := metrics.Parse(resp.Body)
	if err != nil {
		return nil
	}
	return s
}
