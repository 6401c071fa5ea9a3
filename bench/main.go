// Command bench is the repository's benchmark: four workloads over the
// verification service, run from one process, with every verdict
// checked against a label that does not come from the verifier. See
// README.md for the workloads, the metrics and how they interact.
//
//	go run ./bench --workload serve-cold --seed 12 --seconds 15 --trace 0
//	go run ./bench --workload serve-cold --seed 12 --seconds 15 --trace 1
//	go run ./bench --aa 10
//
// bench/run.sh is the same with the Go cache kept inside the checkout.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
)

// Defaults frozen with BENCHMARK.json: the seed golden.json's digests
// belong to, and the run length the op counts were calibrated for.
const (
	defaultSeed    = 12
	defaultSeconds = 15
	// maxParallel caps clients and workers per server; the reference box
	// has 2 cores.
	maxParallel = 4
	// setupRepeats is how often a run sets its workload up; setup_s is
	// the median, which a single slow set-up cannot move.
	setupRepeats = 3
	outDir       = "bench/out"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, the same on every workload. Bound is
// how far the median may worsen before a change counts as a regression,
// and how far two sets of runs of one tree may disagree. Only metrics
// that hold their bound on the reference box are here: its speed moves
// by a third from one minute to the next, so every timing but setup_s,
// which the acceptance contract requires, is reported among the
// per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics, named after the internal/
// package they describe. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	// The service's speed as a user sees it, from an untraced phase of
	// full length. On the reference box, whose speed moves by a third
	// from one minute to the next, none of them holds a bound of 10 %, so
	// they are reported here, where nothing is gated.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ir.parse_us", Unit: "us", Better: "lower"},
	{Name: "ir.canon_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.p99_samples", Unit: "count", Better: "higher"},
	{Name: "server.shed_frac", Unit: "frac", Better: "lower"},
	{Name: "oracle.self_us", Unit: "us", Better: "lower"},
	{Name: "oracle.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "oracle.solver_runs", Unit: "count", Better: "lower"},
	{Name: "vcache.hit_frac", Unit: "frac", Better: "higher"},
	{Name: "vcache.promotions_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "vcache.demotions_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "vstore.get_us", Unit: "us", Better: "lower"},
	{Name: "vstore.put_us", Unit: "us", Better: "lower"},
	{Name: "vstore.open_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "vstore.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "alive.verify_us", Unit: "us", Better: "lower"},
	{Name: "alive.verify_p50_us", Unit: "us", Better: "lower"},
	{Name: "alive.verify_us.scalar", Unit: "us", Better: "lower"},
	{Name: "alive.verify_us.control-flow", Unit: "us", Better: "lower"},
	{Name: "alive.verify_us.loop", Unit: "us", Better: "lower"},
	{Name: "alive.verify_us.wide-int", Unit: "us", Better: "lower"},
	{Name: "alive.verify_us.adversarial", Unit: "us", Better: "lower"},
	{Name: "alive.allocs_per_verify", Unit: "count", Better: "lower"},
	{Name: "sat.conflicts_per_op", Unit: "count", Better: "lower"},
	{Name: "bv.check_us", Unit: "us", Better: "lower"},
	{Name: "sat.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.hop_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.hedges_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "cluster.retries_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "cluster.coalesced_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "cluster.replica_imbalance", Unit: "frac", Better: "lower"},
	{Name: "seqopt.self_us", Unit: "us", Better: "lower"},
	{Name: "seqopt.queries_per_search", Unit: "count", Better: "lower"},
	{Name: "seqopt.states_per_search", Unit: "count", Better: "lower"},
	{Name: "seqopt.oracle_share", Unit: "frac", Better: "lower"},
	{Name: "seqopt.pass_apply_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.self_sum_frac", Unit: "frac", Better: "higher"},
	{Name: "host.steal_frac", Unit: "frac", Better: "lower"},
}

// timings are the first rows of perLayer: what an untraced phase
// measures besides the end-to-end metrics.
var timings = perLayer[:3]

//go:embed golden.json
var goldenJSON []byte

// golden holds the op-list digests of the default seed and run length,
// so a change to dataset or rewrite that silently alters the workload
// shows as a mismatch instead of as a performance change.
type golden struct {
	Seed    int64             `json:"seed"`
	Seconds int               `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is everything a run knows, kept in bench/out so a disturbed
// run can be recognised afterwards.
type record struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	CorpusDigest string         `json:"corpus_digest"`
	GoldenDigest string         `json:"golden_digest,omitempty"`
	PhaseWallS   float64        `json:"phase_wall_s"`
	SetupsS      []float64      `json:"setups_s,omitempty"`
	SegOpsPerS   []float64      `json:"segment_ops_per_s"`
	SegWallS     []float64      `json:"segment_wall_s"`
	SegCPUS      []float64      `json:"segment_cpu_s"`
	Problems     []string       `json:"problems,omitempty"`
	Host         map[string]any `json:"host"`
	// Reported holds the timings of an end-to-end run, which its result
	// line leaves to the traced run.
	Reported map[string]value `json:"reported,omitempty"`
	Result   result           `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-cold, serve-warm, cluster-cold or search-cold")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same ops")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed phase; sets the op count")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from the benchmark's shims, spans in "+outDir)
	aa := fs.Int("aa", 0, "A/A self-check: two interleaved sets of this many runs per workload")
	storeDir := fs.String("store-dir", "", "parent directory of the verdict stores; default /dev/shm when it is a usable tmpfs, else "+outDir)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *storeDir == "" {
		*storeDir = defaultStoreDir()
	}
	if err := os.MkdirAll(*storeDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *aa > 0 {
		return runAA(*aa, *seconds, *storeDir, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		n:        roundOps(w.opsPerSec * *seconds),
		parallel: min(runtime.NumCPU(), maxParallel),
		storeDir: *storeDir,
		warmKeys: warmKeys,
	}
	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	steal0, total0, stealErr := cpuTicks()

	var err error
	if *trace == 1 {
		err = runTraced(w, cfg, &rec)
	} else {
		err = runUntraced(w, cfg, &rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	stealFrac := 0.0
	if steal1, total1, err := cpuTicks(); err == nil && stealErr == nil && total1 > total0 {
		stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	rec.Host = hostFacts(*storeDir)
	rec.Host["steal_frac"] = stealFrac
	if rec.Trace {
		rec.Result.Metrics["host.steal_frac"] = value{stealFrac, "frac"}
	}
	rec.Result.Correct = len(rec.Problems) == 0

	report(stdout, &rec)
	path := recordPath(w.name, *trace)
	if data, err := json.MarshalIndent(rec, "", "  "); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	} else if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// recordPath is where a run leaves its record.
func recordPath(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

// runUntraced is the end-to-end run.
func runUntraced(w workload, cfg runConfig, rec *record) error {
	m, err := measure(w, cfg, setupRepeats, rec)
	if err != nil {
		return err
	}
	rec.Result.Metrics = withUnits(endToEnd, m)
	rec.Reported = withUnits(timings, m)
	return nil
}

// measure sets the workload up `setups` times (setup_s is the median,
// which one slow set-up cannot move), runs one untraced timed phase of
// full length on the last system with the exact checks, and returns
// every end-to-end metric and timing.
func measure(w workload, cfg runConfig, setups int, rec *record) (map[string]float64, error) {
	var sys *system
	for k := 0; k < setups; k++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, err
			}
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := w.setup(cfg, nil)
		if err != nil {
			return nil, err
		}
		sys = s
		rec.SetupsS = append(rec.SetupsS, time.Since(t0).Seconds())
	}
	p := runPhase(cfg.n, cfg.parallel, sys.exec)
	finish(sys, p, rec)
	rec.setPhase(w.name, sys.digest, p)
	if err := sys.stop(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":       median(rec.SetupsS),
		"allocs_per_op": p.allocsPerOp(),
		"peak_rss_mb":   rss,
		"ops_per_s":     p.opsPerSec(),
		"p50_ms":        p.latencyMs(0.5),
		"cpu_ms_per_op": p.cpuMsPerOp(),
		// Tail latency is reported with its sample count, never gated:
		// on two shared cores the p99 of a short op is scheduler noise.
		"server.p99_ms":      p.latencyMs(0.99),
		"server.p99_samples": float64(p.ops),
	}, nil
}

// withUnits pairs every metric of defs with its value in m (0 when m
// has none) and its unit.
func withUnits(defs []metricDef, m map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{m[d.Name], d.Unit}
	}
	return out
}

// finish adds a timed phase's outcome to the run's and runs the
// workload's exact checks.
func finish(sys *system, p phase, rec *record) {
	rec.Result.Attempted += p.ops
	rec.Result.Failed += p.failed
	if p.failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d ops failed", p.failed, p.ops))
	}
	if err := sys.check(); err != nil {
		rec.Problems = append(rec.Problems, err.Error())
	}
}

// setPhase records the untraced phase of full length: its op-list
// digest, checked against golden.json when the run used the seed and
// length the golden digests were taken at, and its segments.
func (rec *record) setPhase(workload, digest string, p phase) {
	rec.CorpusDigest = digest
	rec.PhaseWallS = p.wall.Seconds()
	rec.SegOpsPerS = p.segOpsPerSec()
	for s := range p.segWall {
		rec.SegWallS = append(rec.SegWallS, p.segWall[s].Seconds())
		rec.SegCPUS = append(rec.SegCPUS, p.segCPU[s].Seconds())
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		rec.Problems = append(rec.Problems, "golden.json: "+err.Error())
		return
	}
	if rec.Seed != g.Seed || rec.Seconds != g.Seconds {
		return
	}
	rec.GoldenDigest = g.Digests[workload]
	if rec.GoldenDigest != digest {
		rec.Problems = append(rec.Problems, fmt.Sprintf(
			"corpus_digest %s differs from golden.json's %s: dataset or rewrite changed the workload; results are not comparable across that change",
			digest, rec.GoldenDigest))
	}
}

// runTraced is the per-layer run: the untraced phase of full length
// for the timings; then the first two segments' worth of the same op
// list without shims, with them, and without them again, each on a
// fresh system; then the probes. A process speeds up as its heap
// settles, so the traced pass is compared with the mean of the plain
// passes on either side of it.
func runTraced(w workload, cfg runConfig, rec *record) error {
	full, err := measure(w, cfg, 1, rec)
	if err != nil {
		return err
	}
	runtime.GC()
	cfg.n = roundOps(2 * cfg.n / segments)

	plainPass := func() (float64, error) {
		sys, err := w.setup(cfg, nil)
		if err != nil {
			return 0, err
		}
		p := runPhase(cfg.n, cfg.parallel, sys.exec)
		if p.failed > 0 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d ops failed in an untraced pass", p.failed, p.ops))
		}
		err = sys.stop()
		runtime.GC()
		return p.opsPerSec(), err
	}
	plain1, err := plainPass()
	if err != nil {
		return err
	}

	tr := newTracer()
	sys, err := w.setup(cfg, tr)
	if err != nil {
		return err
	}
	tr.reset() // set-up traffic (serve-warm's prewarm) is not part of the phase
	p := runPhase(cfg.n, cfg.parallel, tr.ops(sys))
	finish(sys, p, rec)
	m := counterMetrics(sys, p)
	pairs := probePairs(sys)
	if err := sys.stop(); err != nil {
		return err
	}
	spans := link(tr.spans)
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return err
	}
	waits, err := tr.queueWaitsUs()
	if err != nil {
		return err
	}
	spanMetrics(m, spans, sys, waits)
	sys, tr, spans = nil, nil, nil // the second plain pass runs on as empty a heap as the first
	runtime.GC()
	plain2, err := plainPass()
	if err != nil {
		return err
	}
	for _, name := range []string{"ops_per_s", "p50_ms", "cpu_ms_per_op", "server.p99_ms", "server.p99_samples"} {
		m[name] = full[name]
	}
	m["trace.overhead_frac"] = 1 - p.opsPerSec()/((plain1+plain2)/2)

	pr := runProbes(pairs)
	m["ir.parse_us"], m["ir.canon_us"] = pr.parseUs, pr.canonUs
	m["alive.allocs_per_verify"] = pr.allocsPerVerify
	m["bv.check_us"], m["sat.solve_ms"] = pr.bvCheckUs, pr.satSolveMs
	m["seqopt.pass_apply_us"] = pr.passApplyUs

	rec.Result.Metrics = withUnits(perLayer, m)
	return nil
}

// probePairs takes the head of the workload's op list as IR text for
// the probes. search-cold has inputs, not pairs; its queries are an
// input against a pass's output, so the reference pass stands in.
func probePairs(sys *system) []pair {
	var pairs []pair
	if sys.inputs != nil {
		for _, in := range sys.inputs[:min(probePairsN, len(sys.inputs))] {
			pairs = append(pairs, pair{ir.FuncString(in.fn), ir.FuncString(instcombine.Run(in.fn))})
		}
		return pairs
	}
	for i := range sys.requests[:min(probePairsN, len(sys.requests))] {
		src, tgt := sys.requests[i].texts()
		pairs = append(pairs, pair{src, tgt})
	}
	return pairs
}

// report prints every metric by name with its unit, and what the run
// did, ahead of the result line.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "ops attempted %d  succeeded %d  failed %d  timed phase %.2f s\n",
		rec.Result.Attempted, rec.Result.Attempted-rec.Result.Failed, rec.Result.Failed, rec.PhaseWallS)
	fmt.Fprintf(w, "corpus_digest %s\n", rec.CorpusDigest)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Result.Metrics[d.Name]
		fmt.Fprintf(w, "%-30s %14.4f %s\n", d.Name, v.Value, v.Unit)
	}
	if !rec.Trace {
		for _, d := range timings {
			v := rec.Reported[d.Name]
			fmt.Fprintf(w, "%-30s %14.4f %s  (reported, not gated)\n", d.Name, v.Value, v.Unit)
		}
	}
	var host []string
	for _, k := range []string{"nproc", "gomaxprocs", "go", "commit", "store_dir", "store_fs", "steal_frac"} {
		host = append(host, fmt.Sprintf("%s=%v", k, rec.Host[k]))
	}
	fmt.Fprintln(w, "host", strings.Join(host, " "))
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

func hostFacts(storeDir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"store_dir":  storeDir,
		"store_fs":   fsType(storeDir),
	}
}

// defaultStoreDir keeps the sandbox's disk out of the measurement:
// vstore fsyncs when it creates a segment, saves its manifest and
// closes, which costs nothing on a tmpfs and milliseconds of somebody
// else's I/O queue on a disk. Every store is a private temporary
// directory, removed when its system stops. Without a /dev/shm that is
// a writable tmpfs with room for the stores (a container's default is
// 64 MB; serve-cold appends about 30) they stay inside the checkout.
func defaultStoreDir() string {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if fsType(shm) != "tmpfs" || syscall.Statfs(shm, &st) != nil || st.Bavail*uint64(st.Bsize) < 256<<20 {
		return outDir
	}
	probe, err := os.MkdirTemp(shm, "veriopt-bench-probe-")
	if err != nil {
		return outDir
	}
	os.Remove(probe)
	return shm
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached: HEAD is the hash
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir, the one fact that decides
// whether store timings are the program's or the disk's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
