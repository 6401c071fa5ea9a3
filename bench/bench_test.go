package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// The program addresses bench/out and BENCHMARK.json from the root of
// the checkout, so the tests run there too.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSegmentMedians(t *testing.T) {
	p := phase{ops: 9 * 100}
	// One segment ten times slower than the rest must not move either
	// median.
	for s := range p.segWall {
		p.segWall[s] = 50 * time.Millisecond
		p.segCPU[s] = 80 * time.Millisecond
	}
	p.segWall[4], p.segCPU[4] = 500*time.Millisecond, 800*time.Millisecond
	if got := p.opsPerSec(); !near(got, 2000) {
		t.Errorf("opsPerSec = %v, want 2000", got)
	}
	if got := p.cpuMsPerOp(); !near(got, 0.8) {
		t.Errorf("cpuMsPerOp = %v, want 0.8", got)
	}
	if got := roundOps(1000); got != 999 {
		t.Errorf("roundOps(1000) = %d, want 999", got)
	}
	if got := roundOps(4); got != segments {
		t.Errorf("roundOps(4) = %d, want %d", got, segments)
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(v); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := exclusiveQuantile(v, 0.25), exclusiveQuantile(v, 0.75); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("exclusive quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := worseBy(metricDef{Better: "higher"}, 100, 90); !near(got, 0.1) {
		t.Errorf("worseBy(higher, 100, 90) = %v, want 0.1", got)
	}
	if got := worseBy(metricDef{Better: "lower"}, 100, 90); !near(got, -0.1) {
		t.Errorf("worseBy(lower, 100, 90) = %v, want -0.1", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {50, 70}}, 70},
		{"overlapping count once", [][2]int64{{10, 40}, {30, 60}}, 50},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", [][2]int64{{-10, 10}, {95, 130}}, 85},
	} {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLinkBuildsTrees(t *testing.T) {
	spans := link([]span{
		// Recorded in completion order, as the shims do: children first.
		{Name: spanGet, Key: "f", Op: -1, Start: 20, End: 30},
		{Name: spanAlive, Key: "f", Op: -1, Start: 30, End: 80},
		{Name: spanOracle, Key: "f", Op: -1, Start: 10, End: 90},
		{Name: spanOp, Key: "f", Op: 7, Start: 0, End: 100},
		// Same key again (serve-warm repeats keys): must attach to the
		// later op, not the earlier one.
		{Name: spanOracle, Key: "f", Op: -1, Start: 210, End: 220},
		{Name: spanOp, Key: "f", Op: 8, Start: 200, End: 230},
		// A hedge loser that outlived every parent stays out.
		{Name: spanReplica, Key: "g", Op: -1, Start: 0, End: 999},
	})
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if s := byName[spanAlive][0]; s.Op != 7 || s.self != 50 {
		t.Errorf("alive span: op %d self %d, want 7, 50", s.Op, s.self)
	}
	if s := byName[spanOracle][0]; s.Op != 7 || s.self != 80-10-50 {
		t.Errorf("first oracle span: op %d self %d, want 7, 20", s.Op, s.self)
	}
	if s := byName[spanOracle][1]; s.Op != 8 {
		t.Errorf("second oracle span attached to op %d, want 8", s.Op)
	}
	if s := byName[spanOp][0]; s.self != 20 || s.Parent != 0 {
		t.Errorf("op span: self %d parent %d, want 20, 0", s.self, s.Parent)
	}
	if s := byName[spanReplica][0]; s.Op != -1 || s.Parent != 0 {
		t.Errorf("orphan: op %d parent %d, want -1, 0", s.Op, s.Parent)
	}
	// Self times of an op's tree add up to the op.
	total := int64(0)
	for _, s := range spans {
		if s.Op == 7 {
			total += s.self
		}
	}
	if total != 100 {
		t.Errorf("self times of op 7 sum to %d, want 100", total)
	}
}

func TestOpListIsDeterministic(t *testing.T) {
	a, err := buildRequests(5, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildRequests(5, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if digestRequests(a, nil) != digestRequests(b, nil) {
		t.Error("same seed, different worker count: digests differ")
	}
	short, err := buildRequests(5, 1100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if digestRequests(short, nil) != digestRequests(a[:1100], nil) {
		t.Error("a shorter list is not a prefix of a longer one")
	}
	c, err := buildRequests(6, 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if digestRequests(a, nil) == digestRequests(c, nil) {
		t.Error("different seeds give the same digest")
	}
	if digestRequests(a, nil) == digestRequests(a, []int32{1, 0}) {
		t.Error("the play order does not reach the digest")
	}
}

func TestEveryOpIsLabeled(t *testing.T) {
	reqs, err := buildRequests(9, 1200, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	names := map[string]bool{}
	for _, r := range reqs {
		count[r.label]++
		if names[r.name] {
			t.Fatalf("function name %s used twice: keys are not distinct", r.name)
		}
		names[r.name] = true
		src, tgt := r.texts()
		if f, err := ir.ParseFunc(src); err != nil || ir.VerifyFunc(f) != nil || f.Name() != r.name {
			t.Fatalf("%s: source does not parse, verify or carry its name", r.name)
		}
		f, err := ir.ParseFunc(tgt)
		broken := err != nil || ir.VerifyFunc(f) != nil
		switch r.label {
		case alive.Equivalent.String(), alive.SemanticError.String():
			if broken {
				t.Errorf("%s: labelled %s but the target does not parse", r.name, r.label)
			}
		case alive.SyntaxError.String():
			if !broken {
				t.Errorf("%s: labelled syntax_error but the target parses and verifies", r.name)
			}
		default:
			t.Fatalf("%s: label %q", r.name, r.label)
		}
	}
	for _, l := range []string{alive.Equivalent.String(), alive.SemanticError.String(), alive.SyntaxError.String()} {
		if count[l] < len(reqs)/20 {
			t.Errorf("only %d of %d ops labelled %s", count[l], len(reqs), l)
		}
	}
}

// runSmall sets a workload up at a small size, runs its phase and its
// exact checks, and stops it.
func runSmall(t *testing.T, name string, cfg runConfig, tr *tracer) (*system, phase) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	cfg.storeDir = t.TempDir()
	cfg.parallel = 2
	sys, err := w.setup(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	p := runPhase(cfg.n, cfg.parallel, tr.ops(sys))
	if p.failed != 0 {
		t.Errorf("%s: %d of %d ops failed", name, p.failed, p.ops)
	}
	if err := sys.check(); err != nil {
		t.Error(err)
	}
	if err := sys.stop(); err != nil {
		t.Error(err)
	}
	return sys, p
}

func TestShimsAreTransparent(t *testing.T) {
	cfg := runConfig{seed: 3, n: 207}
	plain, _ := runSmall(t, "serve-cold", cfg, nil)
	tr := newTracer()
	traced, _ := runSmall(t, "serve-cold", cfg, tr)

	po, pc := plain.front.OracleStats()
	to, tc := traced.front.OracleStats()
	po.Wall, to.Wall, pc.WallTime, tc.WallTime = 0, 0, 0, 0
	if !reflect.DeepEqual(po, to) {
		t.Errorf("oracle counters differ:\n plain  %+v\n traced %+v", po, to)
	}
	if !reflect.DeepEqual(pc, tc) {
		t.Errorf("vcache counters differ:\n plain  %+v\n traced %+v", pc, tc)
	}
	if ps, ts := plain.store.Stats().Appends, traced.store.Stats().Appends; ps != ts {
		t.Errorf("store appends differ: %d plain, %d traced", ps, ts)
	}
	layers := byLayer(link(tr.spans))
	if got, want := len(layers[spanAlive].span), int(tc.Misses); got != want {
		t.Errorf("%d alive spans, want one per solver run (%d)", got, want)
	}
	if got, want := len(layers[spanPut].span), int(tc.Misses); got != want {
		t.Errorf("%d vstore.put spans, want %d", got, want)
	}
}

func TestServeWarmRunsNoSolver(t *testing.T) {
	sys, _ := runSmall(t, "serve-warm", runConfig{seed: 4, n: 900, warmKeys: 256}, nil)
	cs := sys.front.Engine.Stats()
	if cs.Misses != 0 || cs.Promotions == 0 || cs.Demotions == 0 {
		t.Errorf("serve-warm: %d solver runs, %d promotions, %d demotions; want 0, >0, >0",
			cs.Misses, cs.Promotions, cs.Demotions)
	}
	if sys.replay <= 0 {
		t.Error("serve-warm did not time the store reopen")
	}
}

func TestClusterAndSearchSmall(t *testing.T) {
	tr := newTracer()
	sys, p := runSmall(t, "cluster-cold", runConfig{seed: 2, n: 90}, tr)
	_ = sys
	layers := byLayer(link(tr.spans))
	if len(layers[spanCluster].span) == 0 || len(layers[spanReplica].span) == 0 || len(layers[spanAlive].span) == 0 {
		t.Errorf("cluster-cold trace lacks a layer: %d cluster, %d replica, %d alive spans",
			len(layers[spanCluster].span), len(layers[spanReplica].span), len(layers[spanAlive].span))
	}
	if p.ops != 90 {
		t.Errorf("cluster-cold ran %d ops, want 90", p.ops)
	}
	sys, _ = runSmall(t, "search-cold", runConfig{seed: 2, n: 108}, nil)
	queries := 0
	for _, s := range sys.searches {
		queries += s.queries
	}
	if queries == 0 {
		t.Error("search-cold issued no oracle queries")
	}
}

// TestRunPrintsTheContract drives the command the way the driver does
// and checks the last line of output in both modes.
func TestRunPrintsTheContract(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "search-cold", "--seed", "77", "--seconds", "1", "--trace", trace,
			"--store-dir", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", trace, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(res) != 4 {
			t.Errorf("trace %s: result has keys %v, want exactly correct, attempted, failed, metrics", trace, res)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(defs) {
			t.Errorf("trace %s: result %+v, want correct with %d metrics", trace, r, len(defs))
		}
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or in unit %q, want %q", trace, d.Name, v.Unit, d.Unit)
			}
		}
		if trace == "0" {
			for _, d := range defs {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, r.Metrics[d.Name].Value)
				}
			}
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want failure and no result", code, out.String())
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, which the
// driver reads, equal to the tables the program prints from.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := doc.Workloads[i]
		if d.Name != w.name || len(d.Why) == 0 || len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("workload %d: %q with a why of %d characters; want %q and 1..200 on one line", i, d.Name, len(d.Why), w.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", doc.PerLayer, perLayer)
	}
}
