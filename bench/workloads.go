package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/cluster"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
	"veriopt/internal/seqopt"
	"veriopt/internal/server"
	"veriopt/internal/vcache"
	"veriopt/internal/vstore"
)

// workload is one fixed set of inputs the benchmark runs. opsPerSec is
// the op count per requested second of measuring, calibrated once on
// the 2-core reference box and then frozen: a run does a fixed amount
// of work, so its work counters repeat exactly, and lasts about as long
// as asked.
type workload struct {
	name      string
	opsPerSec int
	setup     func(cfg runConfig, tr *tracer) (*system, error)
}

var workloads = []workload{
	{name: "serve-cold", opsPerSec: 2400, setup: setupServeCold},
	{name: "serve-warm", opsPerSec: 6000, setup: setupServeWarm},
	{name: "cluster-cold", opsPerSec: 1250, setup: setupClusterCold},
	{name: "search-cold", opsPerSec: 190, setup: setupSearchCold},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serve-warm sizes: W distinct verdicts in the store, a prewarmed hot
// subset (W/32) that takes half the traffic, and a hot tier (W/8) that
// holds the hot subset but only an eighth of W, so the other half of the
// traffic keeps promoting and demoting.
const (
	warmKeys     = 8192
	warmHotDiv   = 32
	warmCacheDiv = 8
)

// searchRecheckEvery is the sampling rate of search-cold's output
// check: one search result in this many is re-proven against its input.
const searchRecheckEvery = 100

type runConfig struct {
	seed     int64
	n        int // ops in the timed phase, a multiple of segments
	parallel int // closed-loop clients, and workers per server
	storeDir string
	warmKeys int // serve-warm's W; warmKeys outside tests
}

// system is a workload set up and ready for its timed phase.
type system struct {
	digest string
	// exec runs op i from the given client and reports whether it
	// succeeded: transport ok, status 200, verdict equal to its label.
	exec func(client, i int) bool
	// opKey is the source function name of op i, the key spans carry.
	opKey func(i int) string
	// check verifies what must hold exactly after the timed phase.
	check func() error
	stop  func() error

	// requests (HTTP workloads) or inputs (search-cold) are the distinct
	// ops, in corpus order, for the probes.
	requests []request
	inputs   []input

	// front is the stack the ops enter, frontBefore its cache counters
	// when set-up ended; solvers are the stacks whose base is the live
	// verifier (the replicas' in cluster-cold, else front itself).
	front       *oracle.Stack
	frontBefore vcache.Stats
	solvers     []*oracle.Stack
	store       *vstore.Store        // nil without a verdict store
	coord       *cluster.Coordinator // nil outside cluster-cold
	shed        func() int           // 429 responses seen by clients; nil without HTTP
	// searches holds search-cold's per-op results; nil elsewhere.
	searches []searchStat

	replay time.Duration // serve-warm: the store reopen in set-up
}

type searchStat struct{ queries, states int }

// storeConfig keeps the periodic fsync out of every timed phase: the
// benchmark measures the store's code path (encode, CRC, index, pread,
// decode), not the sandbox's disk. The syncs vstore cannot be told to
// skip (new segment, manifest, Close) are free on the tmpfs the stores
// live on; see defaultStoreDir.
var storeConfig = vstore.Config{SyncEvery: 1 << 30}

// ---- in-process HTTP plumbing ----

type httpServer struct {
	url  string
	stop func() error
}

// startServer runs a server on a loopback listener. The listener is
// bound before this returns, so clients can connect at once: no
// polling, no sleep.
func startServer(cfg server.Config) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	srv := server.New(cfg)
	go func() { done <- srv.Run(ctx, ln) }()
	return &httpServer{
		url: "http://" + ln.Addr().String(),
		stop: func() error {
			cancel()
			return <-done
		},
	}, nil
}

// clientPool is the closed-loop clients, one keep-alive connection
// each.
type clientPool struct {
	url     string
	clients []*http.Client
	mu      sync.Mutex
	sheds   int
}

func newClientPool(url string, n int) *clientPool {
	p := &clientPool{url: url + "/v1/verify"}
	for i := 0; i < n; i++ {
		p.clients = append(p.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return p
}

// verify posts one request and reports whether the answer is the
// labelled verdict.
func (p *clientPool) verify(client int, r *request) bool {
	resp, err := p.clients[client].Post(p.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			p.mu.Lock()
			p.sheds++
			p.mu.Unlock()
		}
		return false
	}
	var vr struct {
		Verdict string `json:"verdict"`
	}
	return json.Unmarshal(data, &vr) == nil && vr.Verdict == r.label
}

func (p *clientPool) shed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sheds
}

func (p *clientPool) close() error {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	return nil
}

// serveStore starts one server over a stack whose cold tier is st, with
// its closed-loop clients. stop closes clients, server, store and
// removes dir, in that order.
func serveStore(cfg runConfig, tr *tracer, st *vstore.Store, dir string, cacheEntries int) (*oracle.Stack, *clientPool, func() error, error) {
	stack := oracle.NewStack(oracle.Config{
		CacheEntries: cacheEntries,
		Backing:      tr.backing(st),
		Base:         tr.oracle(spanAlive, oracle.Base()),
	})
	rmDir := func() error { return os.RemoveAll(dir) }
	srv, err := startServer(server.Config{Workers: cfg.parallel, Oracle: tr.oracle(spanOracle, stack), Obs: tr.recorder()})
	if err != nil {
		return nil, nil, nil, errors.Join(err, st.Close(), rmDir())
	}
	pool := newClientPool(srv.url, cfg.parallel)
	return stack, pool, stopAll(pool.close, srv.stop, st.Close, rmDir), nil
}

// solverOps counts the requests that reach the oracle: a target that
// does not parse is answered by the server before it.
func solverOps(reqs []request) uint64 {
	n := uint64(0)
	for _, r := range reqs {
		if r.label != alive.SyntaxError.String() {
			n++
		}
	}
	return n
}

// stopAll runs every stop function, in order, and joins the errors.
func stopAll(stops ...func() error) func() error {
	return func() error {
		var errs []error
		for _, s := range stops {
			errs = append(errs, s())
		}
		return errors.Join(errs...)
	}
}

// ---- serve-cold ----

func setupServeCold(cfg runConfig, tr *tracer) (*system, error) {
	reqs, err := buildRequests(cfg.seed, cfg.n, cfg.parallel)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.storeDir, "veriopt-bench-serve-cold-")
	if err != nil {
		return nil, err
	}
	st, err := vstore.Open(dir, storeConfig)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	stack, pool, stop, err := serveStore(cfg, tr, st, dir, 0)
	if err != nil {
		return nil, err
	}
	want := solverOps(reqs)
	return &system{
		digest: digestRequests(reqs, nil),
		exec:   func(c, i int) bool { return pool.verify(c, &reqs[i]) },
		opKey:  func(i int) string { return reqs[i].name },
		check: func() error {
			cs, ss := stack.Engine.Stats(), st.Stats()
			if cs.Hits != 0 || cs.Misses != want || ss.Appends != want {
				return fmt.Errorf("serve-cold: want 0 cache hits, %d solver runs, %d store appends; got %d, %d, %d",
					want, want, cs.Hits, cs.Misses, ss.Appends)
			}
			return nil
		},
		stop:     stop,
		requests: reqs,
		front:    stack,
		solvers:  []*oracle.Stack{stack},
		store:    st,
		shed:     pool.shed,
	}, nil
}

// ---- serve-warm ----

func setupServeWarm(cfg runConfig, tr *tracer) (*system, error) {
	reqs, err := buildRequests(cfg.seed, cfg.warmKeys, cfg.parallel)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.storeDir, "veriopt-bench-serve-warm-")
	if err != nil {
		return nil, err
	}
	if err := fillStore(dir, reqs, cfg.parallel); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	// The warm restart users pay at boot: reopen replays every segment.
	t0 := time.Now()
	st, err := vstore.Open(dir, storeConfig)
	replay := time.Since(t0)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	stack, pool, stop, err := serveStore(cfg, tr, st, dir, cfg.warmKeys/warmCacheDiv)
	if err != nil {
		return nil, err
	}

	// The hot subset is every warmHotDiv-th key in order of request size,
	// from a seeded offset: it then costs what the population costs, and
	// no seed draws a hot half of the traffic made of unusually small or
	// large functions.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x7761726d))
	bySize := make([]int, cfg.warmKeys)
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(reqs[bySize[a]].body) < len(reqs[bySize[b]].body) })
	var hot []int
	for i := rng.Intn(warmHotDiv); i < cfg.warmKeys; i += warmHotDiv {
		hot = append(hot, bySize[i])
	}
	order := make([]int32, cfg.n)
	for i := range order {
		if rng.Intn(2) == 0 {
			order[i] = int32(hot[rng.Intn(len(hot))])
		} else {
			order[i] = int32(rng.Intn(cfg.warmKeys))
		}
	}
	for _, h := range hot {
		if !pool.verify(0, &reqs[h]) {
			stop()
			return nil, fmt.Errorf("serve-warm: prewarm of %s did not answer %s", reqs[h].name, reqs[h].label)
		}
	}
	before := stack.Engine.Stats()
	if before.Misses != 0 {
		stop()
		return nil, fmt.Errorf("serve-warm: %d solver runs while prewarming from a full store", before.Misses)
	}
	return &system{
		digest: digestRequests(reqs, order),
		exec:   func(c, i int) bool { return pool.verify(c, &reqs[order[i]]) },
		opKey:  func(i int) string { return reqs[order[i]].name },
		check: func() error {
			if m := stack.Engine.Stats().Misses; m != 0 {
				return fmt.Errorf("serve-warm: %d solver runs in the timed phase, want 0", m)
			}
			return nil
		},
		stop:        stop,
		requests:    reqs,
		front:       stack,
		frontBefore: before,
		solvers:     []*oracle.Stack{stack},
		store:       st,
		shed:        pool.shed,
		replay:      replay,
	}, nil
}

// fillStore proves every request once through a stack over a fresh
// store in dir and closes it, checking each verdict against its label.
func fillStore(dir string, reqs []request, workers int) error {
	st, err := vstore.Open(dir, storeConfig)
	if err != nil {
		return err
	}
	stack := oracle.NewStack(oracle.Config{Backing: st})
	errs := make([]error, len(reqs))
	par.ParallelFor(workers, len(reqs), func(i int) {
		r := &reqs[i]
		if r.label == alive.SyntaxError.String() {
			return
		}
		srcText, tgtText := r.texts()
		src, err := ir.ParseFunc(srcText)
		if err != nil {
			errs[i] = err
			return
		}
		tgt, err := ir.ParseFunc(tgtText)
		if err != nil {
			errs[i] = err
			return
		}
		if got := stack.Verify(context.Background(), src, tgt, alive.DefaultOptions()).Verdict.String(); got != r.label {
			errs[i] = fmt.Errorf("serve-warm: fill: %s answered %s, label %s", r.name, got, r.label)
		}
	})
	if err := errors.Join(errs...); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// ---- cluster-cold ----

func setupClusterCold(cfg runConfig, tr *tracer) (*system, error) {
	reqs, err := buildRequests(cfg.seed, cfg.n, cfg.parallel)
	if err != nil {
		return nil, err
	}
	var (
		stops    []func() error
		urls     []string
		replicas []*oracle.Stack
	)
	fail := func(err error) (*system, error) {
		stopAll(stops...)()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		stack := oracle.NewStack(oracle.Config{Base: tr.oracle(spanAlive, oracle.Base())})
		srv, err := startServer(server.Config{Workers: cfg.parallel, Oracle: tr.oracle(spanReplica, stack)})
		if err != nil {
			return fail(err)
		}
		stops = append(stops, srv.stop)
		urls = append(urls, srv.url)
		replicas = append(replicas, stack)
	}
	// Hedging, retry and probing as shipped: the zero Config.
	coord, err := cluster.New(cluster.Config{Replicas: urls})
	if err != nil {
		return fail(err)
	}
	pctx, stopProbe := context.WithCancel(context.Background())
	coord.Start(pctx)
	stops = append(stops, func() error { stopProbe(); coord.Wait(); return nil })
	front := oracle.NewStack(oracle.Config{Remote: tr.remote(coord)})
	srv, err := startServer(server.Config{
		Workers: cfg.parallel, Oracle: tr.oracle(spanOracle, front), Obs: tr.recorder(),
		Role: "coordinator", ExtraMetrics: coord.MetricsText,
	})
	if err != nil {
		return fail(err)
	}
	pool := newClientPool(srv.url, cfg.parallel)
	// Front first, so nothing is forwarded to a replica that is gone.
	stops = append([]func() error{pool.close, srv.stop}, stops...)
	want := solverOps(reqs)
	return &system{
		digest: digestRequests(reqs, nil),
		exec:   func(c, i int) bool { return pool.verify(c, &reqs[i]) },
		opKey:  func(i int) string { return reqs[i].name },
		check: func() error {
			// A hedge can prove a key on both replicas, so replica solver
			// runs are bounded below, not pinned.
			runs := replicas[0].Engine.Stats().Misses + replicas[1].Engine.Stats().Misses
			if cs := front.Engine.Stats(); cs.Hits != 0 || cs.Misses != want || runs < want {
				return fmt.Errorf("cluster-cold: want 0 coordinator cache hits, %d forwards, at least %d replica solver runs; got %d, %d, %d",
					want, want, cs.Hits, cs.Misses, runs)
			}
			return nil
		},
		stop:     stopAll(stops...),
		requests: reqs,
		front:    front,
		solvers:  replicas,
		coord:    coord,
		shed:     pool.shed,
	}, nil
}

// ---- search-cold ----

func setupSearchCold(cfg runConfig, tr *tracer) (*system, error) {
	ins, err := buildInputs(cfg.seed, cfg.n, cfg.parallel)
	if err != nil {
		return nil, err
	}
	stack := oracle.NewStack(oracle.Config{Base: tr.oracle(spanAlive, oracle.Base())})
	scfg := seqopt.SearchConfig{Oracle: tr.oracle(spanOracle, stack)}
	stats := make([]searchStat, cfg.n)
	// Outputs kept for the re-proof after the timed phase: a seeded 1 %.
	pick := rand.New(rand.NewSource(cfg.seed ^ 0x7365617263)).Intn(searchRecheckEvery)
	kept := make([]*ir.Function, cfg.n)
	return &system{
		digest: digestInputs(ins),
		exec: func(_, i int) bool {
			res, err := seqopt.Beam(context.Background(), ins[i].fn, scfg)
			if err != nil || res.Best.Latency > res.Base.Latency {
				return false
			}
			stats[i] = searchStat{queries: res.Queries, states: res.States}
			if i%searchRecheckEvery == pick {
				kept[i] = res.Fn
			}
			return true
		},
		opKey: func(i int) string { return ins[i].name },
		check: func() error {
			for i, fn := range kept {
				if fn == nil {
					continue
				}
				if v := alive.VerifyFuncs(ins[i].fn, fn, alive.DefaultOptions()).Verdict; v != alive.Equivalent {
					return fmt.Errorf("search-cold: output for %s re-verifies %s, want equivalent", ins[i].name, v)
				}
			}
			return nil
		},
		stop:     func() error { return nil },
		inputs:   ins,
		front:    stack,
		solvers:  []*oracle.Stack{stack},
		searches: stats,
	}, nil
}
