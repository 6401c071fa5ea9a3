package loadgen

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/server"
)

// testSpec shrinks a built-in mix for unit-test speed: a small corpus
// and request count, same structure.
func testSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	s.CorpusN = 12
	if s.Requests > 40 {
		s.Requests = 40
	}
	return s
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := testSpec(t, "mixed")
	a, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec synthesized different event streams")
	}
	if len(a) != spec.Requests {
		t.Fatalf("got %d events, want %d", len(a), spec.Requests)
	}
}

func TestSynthesizeMixShapes(t *testing.T) {
	// malformed-ir: every event malformed, none hits the corpus.
	mal, err := Synthesize(testSpec(t, "malformed-ir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mal {
		if !e.Malformed || e.Scenario != ScenarioMalformed {
			t.Fatalf("malformed mix produced a clean event: %+v", e)
		}
	}

	// hot-repeat: the whole stream lives in a key set no larger than
	// HotSetSize, so almost everything is a repeat.
	hot, err := Synthesize(testSpec(t, "hot-repeat"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range hot {
		keys[e.key()] = true
	}
	if len(keys) > 8 {
		t.Fatalf("hot-repeat uses %d distinct keys, want <= 8", len(keys))
	}

	// all-distinct: every key unique.
	spec := testSpec(t, "all-distinct")
	spec.Requests = spec.CorpusN
	dis, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys = map[string]bool{}
	for _, e := range dis {
		keys[e.key()] = true
	}
	if len(keys) != len(dis) {
		t.Fatalf("all-distinct repeated keys: %d distinct of %d", len(keys), len(dis))
	}

	// deadline-heavy: a meaningful fraction carries the short timeout.
	dl, err := Synthesize(testSpec(t, "deadline-heavy"))
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for _, e := range dl {
		if e.TimeoutMs == 10 {
			short++
		}
	}
	if short < len(dl)/4 {
		t.Fatalf("deadline-heavy has %d/%d short-deadline events, want >= quarter", short, len(dl))
	}

	// Events carry corpus scenario tags.
	tags := map[string]bool{}
	for _, e := range dis {
		tags[e.Scenario] = true
	}
	if len(tags) < 2 {
		t.Fatalf("distinct mix carries %d scenario tags, want several: %v", len(tags), tags)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events, err := Synthesize(testSpec(t, "mixed"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("trace round trip changed the event stream")
	}
	if _, err := ReadTrace(strings.NewReader("{\"op\":\"\"}\n")); err == nil {
		t.Fatal("opless trace line accepted")
	}
}

// TestScrapeDelta: scrapeCounters' four lookups on a literal exposition (the
// parser's own cases are internal/metrics' table) and the delta that
// grades a run.
func TestScrapeDelta(t *testing.T) {
	bodies := []string{`veriopt_requests_shed_total 7
veriopt_panics_total 2
veriopt_vcache_total{counter="queries"} 100
veriopt_vcache_total{counter="hits"} 60
veriopt_vcache_hit_rate 0.6
`, `veriopt_requests_shed_total 9
veriopt_panics_total 0
veriopt_vcache_total{counter="queries"} 150
veriopt_vcache_total{counter="hits"} 80
`}
	var scrapes atomic.Int32 // the first scrape gets bodies[0], every later one bodies[1]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(bodies[min(scrapes.Add(1)-1, 1)]))
	}))
	defer ts.Close()
	before, err := scrapeCounters(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Counters{Shed: 7, Panics: 2, CacheQueries: 100, CacheHits: 60}); before != want {
		t.Fatalf("scraped %+v, want %+v", before, want)
	}
	d, err := Counters{Shed: 9, Panics: 2, CacheQueries: 150, CacheHits: 80}.Delta(before)
	if err != nil || d != (Counters{Shed: 2, CacheQueries: 50, CacheHits: 20}) || d.HitRate() != 0.4 {
		t.Fatalf("delta = %+v (hit rate %v), err %v", d, d.HitRate(), err)
	}

	// A target that restarted between the scrapes: its panic counter
	// reads 2, then 0. The wrapped difference once graded as -2 panics,
	// a PASS; the run must fail and say which counter went backwards.
	scrapes.Store(0)
	rep, err := RunEvents(context.Background(), Spec{Name: "restart"}, nil, RunConfig{BaseURL: ts.URL})
	if err == nil || !strings.Contains(err.Error(), "veriopt_panics_total") {
		t.Fatalf("RunEvents over a restarted target = %+v, err %v; want an error naming veriopt_panics_total", rep, err)
	}
}

func TestSLOEvaluation(t *testing.T) {
	mk := func(n int, f func(i int, r *Result)) []Result {
		rs := make([]Result, n)
		for i := range rs {
			rs[i].Status = 200
			rs[i].Scenario = "scalar"
			rs[i].Latency = time.Millisecond
			f(i, &rs[i])
		}
		return rs
	}
	cases := []struct {
		name   string
		slo    SLO
		res    []Result
		delta  Counters
		broken int
	}{
		{"clean pass", SLO{MaxShedRate: 0.1}, mk(10, func(int, *Result) {}), Counters{}, 0},
		{"shed rate", SLO{MaxShedRate: 0.1}, mk(10, func(i int, r *Result) {
			if i < 3 {
				r.Shed, r.Status = true, 429
			}
		}), Counters{Shed: 3}, 1},
		{"server errors", SLO{MaxShedRate: 1}, mk(4, func(i int, r *Result) {
			if i == 0 {
				r.Status = 500
			}
		}), Counters{}, 1},
		{"panics", SLO{MaxShedRate: 1}, mk(4, func(int, *Result) {}), Counters{Panics: 1}, 1},
		{"hit rate", SLO{MaxShedRate: 1, MinHitRate: 0.9}, mk(4, func(int, *Result) {}),
			Counters{CacheQueries: 10, CacheHits: 5}, 1},
		{"canceled floor", SLO{MaxShedRate: 1, MinCanceledFrac: 0.5}, mk(4, func(int, *Result) {}), Counters{}, 1},
		{"canceled met", SLO{MaxShedRate: 1, MinCanceledFrac: 0.5}, mk(4, func(i int, r *Result) {
			r.Canceled = true
		}), Counters{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Name: "t", Requests: len(tc.res), SLO: tc.slo}
			rep := buildReport(spec, tc.res, time.Second, tc.delta)
			if len(rep.Violations) != tc.broken {
				t.Fatalf("violations = %v, want %d", rep.Violations, tc.broken)
			}
		})
	}
}

// startServer runs an in-process server on a loopback listener.
func startServer(t *testing.T, cfg server.Config) (string, func()) {
	t.Helper()
	s := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("server Run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("server did not drain")
		}
	}
}

// TestReplayHotRepeatPinsHitRate is the canned-mix replay test the
// load smoke builds on: a hot-repeat stream against an in-process
// server must light up the verdict cache, and the client-side
// shed/hit accounting must agree with the server's own counters.
func TestReplayHotRepeatPinsHitRate(t *testing.T) {
	url, stop := startServer(t, server.Config{Workers: 4, Oracle: oracle.NewStack(oracle.Config{})})
	defer stop()
	spec := testSpec(t, "hot-repeat")
	events, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunEvents(context.Background(), spec, events, RunConfig{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != spec.Requests || rep.Shed != 0 || rep.ServerErrors != 0 || rep.TransportErrors != 0 {
		t.Fatalf("accounting off: %+v", rep)
	}
	if rep.PanicsDelta != 0 {
		t.Fatalf("panics delta %d", rep.PanicsDelta)
	}
	// <= 8 hot keys over 40 requests: the cache must absorb the rest.
	if rep.ServerHitRate < 0.5 {
		t.Fatalf("server hit rate %.3f, want >= 0.5 on a hot-repeat stream", rep.ServerHitRate)
	}
	if !rep.Passed() {
		t.Fatalf("SLO violations on a healthy run: %v", rep.Violations)
	}
	// Per-scenario rows must sum back to the stream.
	n := 0
	for _, sc := range rep.Scenarios {
		n += sc.Requests
	}
	if n != spec.Requests {
		t.Fatalf("scenario rows sum to %d, want %d", n, spec.Requests)
	}
}

// TestShedAccountingMatchesServer forces sheds with a one-slot queue
// and a slow oracle, and pins the client's 429 count to the server's
// veriopt_requests_shed_total delta.
func TestShedAccountingMatchesServer(t *testing.T) {
	slow := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
		}
		return alive.Result{Verdict: alive.Equivalent}
	})
	url, stop := startServer(t, server.Config{Workers: 1, QueueSize: 1, Oracle: slow})
	defer stop()
	spec := testSpec(t, "all-distinct")
	spec.Requests = 24
	spec.Concurrency = 12
	spec.SLO = SLO{MaxShedRate: 1} // grading is not under test here
	events, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	before, err := scrapeCounters(context.Background(), nil, url)
	if err != nil {
		t.Fatal(err)
	}
	results, err := play(context.Background(), events, spec, RunConfig{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	after, err := scrapeCounters(context.Background(), nil, url)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := after.Delta(before)
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(spec, results, time.Second, delta)
	if rep.Shed == 0 {
		t.Fatal("one-slot queue under 12-way load shed nothing")
	}
	if uint64(rep.Shed) != delta.Shed {
		t.Fatalf("client counted %d sheds, server %d", rep.Shed, delta.Shed)
	}
	if rep.Shed+rep.OK+rep.ClientErrors+rep.ServerErrors+rep.TransportErrors != spec.Requests {
		t.Fatalf("outcome partition does not sum: %+v", rep)
	}
}

// TestDeadlineHeavyCancels pins deadline injection end to end: short
// per-request timeouts against a slow oracle must come back canceled,
// and the canceled-fraction SLO must see them.
func TestDeadlineHeavyCancels(t *testing.T) {
	slow := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		<-ctx.Done()
		return alive.CanceledResult(ctx.Err())
	})
	url, stop := startServer(t, server.Config{Workers: 4, Oracle: slow})
	defer stop()
	spec := testSpec(t, "deadline-heavy")
	spec.ShortTimeoutFrac = 1.0
	spec.ShortTimeoutMs = 20
	spec.Requests = 16
	rep, err := RunMix(context.Background(), spec, RunConfig{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled != spec.Requests {
		t.Fatalf("canceled %d of %d, want all (every request had a 20ms deadline against a blocking oracle)", rep.Canceled, spec.Requests)
	}
	if !rep.Passed() {
		t.Fatalf("SLO violations: %v", rep.Violations)
	}
}

// TestMalformedMixNeverCrashes replays the malformed-ir mix against a
// live in-process server: only 4xx or syntax-error verdicts, zero
// 5xx, zero panics, and the server stays healthy for a follow-up
// clean request.
func TestMalformedMixNeverCrashes(t *testing.T) {
	url, stop := startServer(t, server.Config{Workers: 4, Oracle: oracle.NewStack(oracle.Config{})})
	defer stop()
	spec := testSpec(t, "malformed-ir")
	rep, err := RunMix(context.Background(), spec, RunConfig{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerErrors != 0 || rep.PanicsDelta != 0 || rep.TransportErrors != 0 {
		t.Fatalf("malformed mix hurt the server: %+v", rep)
	}
	if rep.ClientErrors == 0 {
		t.Fatal("no 4xx from a fully malformed stream (rejection path not exercised)")
	}
	if !rep.Passed() {
		t.Fatalf("SLO violations: %v", rep.Violations)
	}

	// The server is still fully functional afterwards.
	clean := testSpec(t, "all-distinct")
	clean.Requests = 4
	rep, err = RunMix(context.Background(), clean, RunConfig{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 4 {
		t.Fatalf("server unhealthy after malformed mix: %+v", rep)
	}
}

// TestOpenLoopPacing pins the open-loop scheduler: arrivals at a
// fixed rate spread the stream over at least the nominal duration
// even when the server answers instantly.
func TestOpenLoopPacing(t *testing.T) {
	url, stop := startServer(t, server.Config{Workers: 4, Oracle: oracle.NewStack(oracle.Config{})})
	defer stop()
	spec := testSpec(t, "all-distinct")
	spec.Requests = 10
	spec.RatePerSec = 50 // 10 requests at 50/s = 180ms of scheduled arrivals
	events, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	results, err := play(context.Background(), events, spec, RunConfig{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	if wall < 150*time.Millisecond {
		t.Fatalf("open-loop run finished in %v, pacing not applied", wall)
	}
	for i := range results {
		if results[i].Status != 200 {
			t.Fatalf("request %d status %d", i, results[i].Status)
		}
	}
}
