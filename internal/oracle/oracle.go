// Package oracle is the verification spine: every component that
// needs a verdict — GRPO rewards, pipeline evaluation, the curriculum
// stages, the server and the CLIs — goes through it instead of wiring
// itself to the SAT-backed checker or the verdict cache. The paper puts
// the verifier inside the RL loop (Eq. 1–2) and makes deployment
// conditional on it; the package has one entry point for each:
//
//	(*Stack).Verify(ctx, src, tgt, opts) alive.Result   // ask
//	Accept(ctx, o, model, in, cand, opts)               // accept
//
// Verify is one method: print both functions' keys on its stack, let
// the verdict cache's engine answer the query — from the hot tier, from
// an identical query in flight, from the durable backing, or by
// computing — and time the answer. A nil ctx is decided here, once, as
// context.Background(): nothing under Verify sees one.
// Computing means the remote replica set when one is configured (a
// coordinator), and the base verifier otherwise or when the whole fleet
// failed under a context that is still live. The engine counts every
// answer, hits included, by verdict and by reason (vcache.Stats); the
// remote sits inside it so a memoized verdict never pays a network hop
// and a remote verdict is memoized like a local one.
//
// There is no process-wide stack. NewStack is called at the program's
// edge (cmd/, bench/, tests) and the stack is handed down: every
// function that verifies takes its Oracle right after ctx, and every
// type that verifies takes it at construction.
//
// Nothing here consults a clock or a counter to decide a verdict:
// deadlines arrive as request contexts, and the solver's effort bound
// is alive.Options.SolverBudget, which is part of the cache key.
// Config.Base, Config.Backing and Config.Remote are the substitution
// seams — tests and harnesses install a fake or a slowed layer there.
package oracle

import (
	"context"
	"sync/atomic"
	"time"

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

// Base returns the raw SAT-backed verifier (internal/alive) with no
// cache, limits, or counters.
func Base() Oracle {
	return Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		return alive.VerifyFuncsCtx(ctx, src, tgt, opts)
	})
}

// Remote answers verification queries over the network — implemented
// by the cluster coordinator (internal/cluster), which rendezvous-
// hashes each query's fingerprint across worker replicas. Unlike
// Oracle, a Remote can fail to answer at all (every replica down or
// shedding); the error return carries that, and Stack.Verify then
// verifies locally. Stack.Verify never hands it a nil ctx.
type Remote interface {
	VerifyRemote(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error)
}

// Config assembles a Stack. The zero value builds the default
// production shape: a default-sized cache over the base verifier.
type Config struct {
	// CacheEntries bounds the verdict cache's hot tier (<= 0 selects
	// vcache's default, 1<<17).
	CacheEntries int
	// Backing, when non-nil, is the durable cold tier under the cache
	// (see vcache.Backing): hot-tier misses fall through to it before
	// the solver, computed verdicts write through, and evictions
	// demote. A *vstore.Store also lights up the store section of
	// /metrics. It is fixed for the stack's life: a stack is complete
	// when NewStack returns.
	Backing vcache.Backing
	// Remote, when non-nil, makes this stack a cluster coordinator:
	// queries that miss the cache are routed to the remote replica set,
	// with the base serving only as the local fallback when no replica
	// can answer.
	Remote Remote
	// Base overrides the bottom of the stack (nil selects Base()): the
	// one seam where a test or harness substitutes the verifier.
	Base Oracle
}

// Stack is the oracle every product path asks, plus a handle to its
// introspectable part, the verdict cache's engine, which counts every
// answer.
type Stack struct {
	// Engine is the verdict cache: hot tier, singleflight and backing.
	Engine *vcache.Engine
	// wallNanos is the time spent answering, summed across callers.
	wallNanos atomic.Int64

	base   Oracle
	remote Remote
	store  *vstore.Store // Config.Backing when it is one, else nil
}

// Verify implements Oracle. Identical queries in flight share one
// computation (the engine's singleflight, keyed by the digest the
// cluster coordinator routes on), so a Remote sees each distinct query
// once.
// A query whose own context ends during the remote attempt is returned
// Canceled, never retried locally — the caller is gone either way.
func (s *Stack) Verify(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	// vcache.KeyOfFunc's bytes, printed into arrays the size of the
	// printer's own: a hot-tier hit makes no string.
	var srcKey, tgtKey [2048]byte
	res := s.Engine.Do(ctx, ir.AppendCanonicalKey(srcKey[:0], src), ir.AppendCanonicalKey(tgtKey[:0], tgt), opts, func() alive.Result {
		if s.remote != nil {
			res, err := s.remote.VerifyRemote(ctx, src, tgt, opts)
			if err == nil {
				return res
			}
			if ctx.Err() != nil {
				return alive.CanceledResult(ctx.Err())
			}
		}
		return s.base.Verify(ctx, src, tgt, opts)
	})
	s.wallNanos.Add(int64(time.Since(t0)))
	return res
}

// Stats is what only the stack measures; the engine's vcache.Stats
// counts the queries and their answers.
type Stats struct {
	// Wall is cumulative time spent answering, summed across
	// workers.
	Wall time.Duration
}

// OracleStats implements StatsSource.
func (s *Stack) OracleStats() (Stats, vcache.Stats) {
	return Stats{Wall: time.Duration(s.wallNanos.Load())}, s.Engine.Stats()
}

// VStore implements StoreSource: the verdict store under the cache, or
// nil.
func (s *Stack) VStore() *vstore.Store { return s.store }

// StoreSource is implemented by oracles backed by a durable verdict
// store (notably a *Stack built over one); consumers like the serving
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

// NewStack assembles the stack for cfg.
func NewStack(cfg Config) *Stack {
	s := &Stack{
		Engine: vcache.New(vcache.Config{MaxEntries: cfg.CacheEntries, Backing: cfg.Backing}),
		base:   cfg.Base,
		remote: cfg.Remote,
	}
	if s.base == nil {
		s.base = Base()
	}
	s.store, _ = cfg.Backing.(*vstore.Store)
	return s
}
