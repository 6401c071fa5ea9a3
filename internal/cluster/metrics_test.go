package cluster

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
)

// updateGolden rewrites the golden under internal/metrics/testdata. It
// was written at PR 14's commit, by this test over PR 14's hand-written
// renderer and parser; regenerating it is a wire-format change. (PR 23
// made one: the three lines of veriopt_cluster_coalesced_total went
// with the coordinator's singleflight. PR 27 made another: the three
// veriopt_cluster_hedge* families went with hedging, and the HELP of
// _requests_total stopped naming hedges. A third took the last 17
// lines, the merged scrape of the workers' counters, when the section
// came to be read off the coordinator alone.)
var updateGolden = flag.Bool("update", false, "rewrite the coordinator /metrics golden")

// TestMetricsTextGolden pins the coordinator's whole /metrics section,
// byte for byte, over fixed replica counters: three replicas, one
// demoted. The section is the coordinator's own state, so the replica
// URLs need no server behind them.
func TestMetricsTextGolden(t *testing.T) {
	c := mustNew(t, Config{Replicas: []string{"http://replica-a", "http://replica-b", "http://replica-c"}})
	for i, rep := range c.reps {
		n := uint64(i + 1)
		rep.requests.Store(1234567 * n)
		rep.errors.Store(2 * n)
		rep.retries.Store(3 * n)
	}
	c.reps[2].healthy.Store(false)

	got := c.MetricsText(context.Background())
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

// TestMetricsTextSendsNothing: rendering the section sends no request
// to any replica, healthy or demoted, on any path.
func TestMetricsTextSendsNothing(t *testing.T) {
	var requests atomic.Int64
	var urls []string
	for range 2 {
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			requests.Add(1)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	c := mustNew(t, Config{Replicas: urls})
	c.reps[1].healthy.Store(false)
	c.MetricsText(context.Background())
	if n := requests.Load(); n != 0 {
		t.Fatalf("MetricsText sent %d requests to the fleet, want 0", n)
	}
}
