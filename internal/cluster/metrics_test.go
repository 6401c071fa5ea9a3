package cluster

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites the golden under internal/metrics/testdata. It
// was written at PR 14's commit, by this test over PR 14's hand-written
// renderer and parser; regenerating it is a wire-format change. (PR 23
// made one: the three lines of veriopt_cluster_coalesced_total went
// with the coordinator's singleflight. PR 27 made another: the three
// veriopt_cluster_hedge* families went with hedging, and the HELP of
// _requests_total stopped naming hedges.)
var updateGolden = flag.Bool("update", false, "rewrite the coordinator /metrics golden")

// TestMetricsTextGolden pins the coordinator's whole /metrics section,
// byte for byte, over fixed replica counters and fixed worker bodies:
// three replicas, one demoted (not scraped), the two others' merged
// families summed; what is not an integer {counter="…"} sample of a
// merged family is left out of the sums.
func TestMetricsTextGolden(t *testing.T) {
	bodies := []string{
		"# HELP veriopt_oracle_total x\n# TYPE veriopt_oracle_total counter\n" +
			"veriopt_oracle_total{counter=\"queries\"} 5\n" +
			"veriopt_oracle_total{counter=\"equivalent\"} 4\n" +
			"veriopt_oracle_wall_seconds_total 1.25\n" +
			"veriopt_vcache_total{counter=\"hits\"} 3\n" +
			"veriopt_vcache_total{counter=\"ratio\"} 0.5\n" +
			"veriopt_vcache_hit_rate 0.6\n" +
			"veriopt_vstore_total{counter=\"appended_bytes\"} 12345678\n" +
			"veriopt_queue_depth 2\n",
		"veriopt_oracle_total{counter=\"queries\"} 7\n" +
			"veriopt_vcache_total{counter=\"hits\"} 3\n" +
			"veriopt_vcache_total{counter=\"misses\"} 1\n" +
			"veriopt_vcache_total{counter=\"bad\"} x\n" +
			"veriopt_requests_total{endpoint=\"/v1/verify\",code=\"200\"} 9\n" +
			"\nnot a sample line\n" +
			"veriopt_queue_depth 4\n",
		"veriopt_oracle_total{counter=\"queries\"} 1000\nveriopt_queue_depth 100\n",
	}
	var urls []string
	for _, body := range bodies {
		body := body
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rw.Write([]byte(body))
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	c := mustNew(t, Config{Replicas: urls})
	for i, rep := range c.reps {
		n := uint64(i + 1)
		rep.requests.Store(1234567 * n)
		rep.errors.Store(2 * n)
		rep.retries.Store(3 * n)
	}
	c.reps[2].healthy.Store(false)

	got := c.MetricsText(context.Background())
	for i, u := range urls {
		got = strings.ReplaceAll(got, u, "http://replica-"+string(rune('a'+i)))
	}
	const golden = "../metrics/testdata/coordinator.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("coordinator metrics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
