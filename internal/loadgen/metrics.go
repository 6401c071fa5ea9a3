package loadgen

import (
	"context"
	"fmt"
	"net/http"

	"veriopt/internal/metrics"
)

// The server families the SLO evaluation reads.
const (
	shedFamily   = "veriopt_requests_shed_total"
	panicsFamily = "veriopt_panics_total"
	vcacheFamily = "veriopt_vcache_total"
)

// Counters is the slice of the server's /metrics exposition the SLO
// evaluation needs. Scrape before and after a run; the deltas grade
// the run.
type Counters struct {
	Shed         uint64
	Panics       uint64
	CacheQueries uint64
	CacheHits    uint64
}

// Delta subtracts an earlier snapshot counter-wise. A counter that
// went backwards means the target restarted between the scrapes; the
// differences would wrap, so that is an error naming the counter.
func (c Counters) Delta(before Counters) (Counters, error) {
	var err error
	sub := func(name string, now, was uint64) uint64 {
		if now < was && err == nil {
			err = fmt.Errorf("loadgen: %s went backwards between scrapes (%d, then %d): target restarted mid-run", name, was, now)
		}
		return now - was
	}
	return Counters{
		Shed:         sub(shedFamily, c.Shed, before.Shed),
		Panics:       sub(panicsFamily, c.Panics, before.Panics),
		CacheQueries: sub(vcacheFamily+" queries", c.CacheQueries, before.CacheQueries),
		CacheHits:    sub(vcacheFamily+" hits", c.CacheHits, before.CacheHits),
	}, err
}

// HitRate is hits over queries, 0 when nothing was queried.
func (c Counters) HitRate() float64 {
	if c.CacheQueries == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(c.CacheQueries)
}

// scrapeCounters fetches and parses the target's /metrics.
func scrapeCounters(ctx context.Context, client *http.Client, baseURL string) (Counters, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return Counters{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Counters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Counters{}, fmt.Errorf("loadgen: scrape %s: status %d", baseURL, resp.StatusCode)
	}
	scrape, err := metrics.Parse(resp.Body)
	if err != nil {
		return Counters{}, fmt.Errorf("loadgen: scrape %s: %w", baseURL, err)
	}
	vcache := scrape.Labeled(vcacheFamily, "counter")
	return Counters{
		Shed:         scrape.Uint(shedFamily),
		Panics:       scrape.Uint(panicsFamily),
		CacheQueries: vcache["queries"],
		CacheHits:    vcache["hits"],
	}, nil
}
