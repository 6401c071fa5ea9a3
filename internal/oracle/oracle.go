// Package oracle is the composable verification stack: every
// component that needs a verdict — GRPO rewards, pipeline evaluation,
// the curriculum stages, and the CLIs — asks an Oracle instead of
// wiring itself to the SAT-backed checker or the verdict cache
// directly. The paper puts the verifier inside the RL loop (Eq. 1–2);
// this package is the seam that makes that verifier swappable,
// cacheable, cancelable, and observable without touching the loops
// themselves.
//
// An Oracle is one method:
//
//	Verify(ctx, src, tgt, opts) alive.Result
//
// Concerns stack as middleware around the base SAT-backed verifier.
// The canonical order, outermost first (pinned by tests):
//
//	WithStats → WithCache → WithShard → Base
//
// Stats outermost so verdict counters see every query including cache
// hits; the shard layer (coordinator mode only) inside the cache so
// memoized verdicts never pay a network hop and remote verdicts are
// memoized like local ones; the base under the shard layer so a
// coordinator verifies locally only when no replica can answer.
//
// Nothing in the stack consults a clock or a counter to decide a
// verdict: deadlines arrive as request contexts, and the solver's
// effort bound is alive.Options.SolverBudget, which is part of the
// cache key. Config.Base is the one substitution seam — tests and
// harnesses install a fake or a slowed verifier there.
package oracle

import (
	"context"
	"sync"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/vcache"
	"veriopt/internal/vstore"
)

// Oracle answers verification queries: does tgt refine src under the
// given limits? Implementations must be safe for concurrent use and
// must honor ctx by returning a Canceled result promptly once it
// ends.
type Oracle interface {
	Verify(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result
}

// Func adapts a plain function to the Oracle interface.
type Func func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result

// Verify implements Oracle.
func (f Func) Verify(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
	return f(ctx, src, tgt, opts)
}

// Middleware wraps an Oracle with one additional concern.
type Middleware func(Oracle) Oracle

// Base returns the raw SAT-backed verifier (internal/alive) with no
// cache, limits, or counters.
func Base() Oracle {
	return Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		return alive.VerifyFuncsCtx(ctx, src, tgt, opts)
	})
}

// Config assembles the standard stack. The zero value builds the
// default production shape: stats over a default-sized cache over the
// base verifier.
type Config struct {
	// CacheEntries bounds the verdict cache's hot tier (<= 0 selects
	// vcache.DefaultMaxEntries).
	CacheEntries int
	// Backing, when non-nil, is the durable cold tier under the cache
	// (see vcache.Backing): hot-tier misses fall through to it before
	// the solver, computed verdicts write through, and evictions
	// demote. Pass a *vstore.Store (directly, or via Stack.UseStore)
	// to also light up the store section of /metrics.
	Backing vcache.Backing
	// Remote, when non-nil, makes this stack a cluster coordinator:
	// queries that miss the cache are routed to the remote replica set
	// (see WithShard), with the base serving only as the local
	// fallback when no replica can answer.
	Remote Remote
	// Base overrides the bottom of the stack (nil selects Base()): the
	// one seam where a test or harness substitutes the verifier.
	Base Oracle
}

// Stack is the assembled oracle plus handles to its introspectable
// layers: the verdict cache's engine and the stats collector. It
// implements Oracle itself.
type Stack struct {
	Oracle
	// Engine is the verdict cache behind WithCache.
	Engine *vcache.Engine
	// Stats is the outermost per-verdict counter layer.
	Stats *StatsCollector

	mu    sync.Mutex
	store *vstore.Store
}

// OracleStats implements StatsSource.
func (s *Stack) OracleStats() (Stats, vcache.Stats) {
	return s.Stats.Snapshot(), s.Engine.Stats()
}

// UseStore attaches a durable verdict store as the cache's cold tier
// and exposes it through VStore for metrics. Attach at boot, before
// queries flow. If cfg.Backing was already a *vstore.Store, NewStack
// has done this.
func (s *Stack) UseStore(st *vstore.Store) {
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
	s.Engine.SetBacking(st)
}

// VStore implements StoreSource: the attached verdict store, or nil.
func (s *Stack) VStore() *vstore.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// StoreSource is implemented by oracles backed by a durable verdict
// store (notably *Stack after UseStore); consumers like the serving
// layer's /metrics use it to export storage-engine gauges without
// knowing the stack's shape. A nil return means no store is attached.
type StoreSource interface {
	VStore() *vstore.Store
}

// StatsSource is implemented by oracles that can report their own
// counters (notably *Stack); consumers like the pipeline's
// observability hooks use it to attach cache and verdict numbers to
// events without knowing the stack's shape.
type StatsSource interface {
	OracleStats() (Stats, vcache.Stats)
}

// NewStack assembles the canonical middleware stack for cfg.
func NewStack(cfg Config) *Stack {
	base := cfg.Base
	if base == nil {
		base = Base()
	}
	o := base
	if cfg.Remote != nil {
		o = WithShard(cfg.Remote)(o)
	}
	eng := vcache.New(vcache.Config{MaxEntries: cfg.CacheEntries, Backing: cfg.Backing})
	o = WithCache(eng)(o)
	st := &StatsCollector{}
	o = WithStats(st)(o)
	stack := &Stack{Oracle: o, Engine: eng, Stats: st}
	if vs, ok := cfg.Backing.(*vstore.Store); ok {
		stack.store = vs
	}
	return stack
}

var (
	defaultOnce  sync.Once
	defaultStack *Stack
)

// Default returns the process-wide stack used when a caller does not
// supply its own oracle. Verdicts are pure, so sharing one cache
// across trainer stages, evaluation runs, and CLIs is always sound
// and maximizes reuse (greedy evaluation re-proves the same outputs
// across curriculum stages).
func Default() *Stack {
	defaultOnce.Do(func() { defaultStack = NewStack(Config{}) })
	return defaultStack
}

// OrDefault resolves the "nil means the shared default" convention in
// one place: every config struct that carries an optional Oracle
// (grpo.Trainer, pipeline.EvalConfig, pipeline.StageConfig) funnels
// through here, so a future change of the default has one home.
func OrDefault(o Oracle) Oracle {
	if o == nil {
		return Default()
	}
	return o
}
