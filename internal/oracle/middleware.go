package oracle

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/vcache"
)

// WithCache memoizes verdicts in eng, absorbing the former
// vcache-engine behavior: whitespace-insensitive fingerprint keys,
// singleflight deduplication of identical in-flight queries, bounded
// promote-on-hit LRU eviction. Canceled results pass through uncached.
func WithCache(eng *vcache.Engine) Middleware {
	return func(next Oracle) Oracle {
		return Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			k := vcache.Key{Src: vcache.KeyOfFunc(src), Dst: vcache.KeyOfFunc(tgt), Opts: opts}
			return eng.Do(ctx, k, func() alive.Result {
				return next.Verify(ctx, src, tgt, opts)
			})
		})
	}
}

// Remote answers verification queries over the network — implemented
// by the cluster coordinator (internal/cluster), which consistent-
// hashes each query's fingerprint across worker replicas. Unlike
// Oracle, a Remote can fail to answer at all (every replica down or
// shedding); the error return carries that, so WithShard can decide
// between the remote verdict and the local fallback.
type Remote interface {
	VerifyRemote(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error)
}

// WithShard routes queries to a remote verification cluster, falling
// back to the inner (local) oracle only when the cluster cannot answer
// — every reachable replica failed or shed. In the canonical stack it
// sits between the cache and the base: memoized verdicts are served
// without a network hop and remote verdicts are memoized like local
// ones. A query whose own context ends is returned Canceled, never
// retried locally — the caller is gone either way.
func WithShard(r Remote) Middleware {
	return func(next Oracle) Oracle {
		return Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			res, err := r.VerifyRemote(ctx, src, tgt, opts)
			if err == nil {
				return res
			}
			if ctx != nil && ctx.Err() != nil {
				return alive.CanceledResult(ctx.Err())
			}
			return next.Verify(ctx, src, tgt, opts)
		})
	}
}

// Stats is a point-in-time snapshot of a StatsCollector.
type Stats struct {
	// Queries counts every query through the layer.
	Queries uint64
	// ByVerdict counts results per verdict category, indexed by
	// alive.Verdict.
	ByVerdict [4]uint64
	// Canceled counts Canceled results (a subset of the Inconclusive
	// bucket).
	Canceled uint64
	// Wall is cumulative time spent below this layer, summed across
	// workers.
	Wall time.Duration
}

// Counters returns the snapshot's monotonic counters under stable
// snake_case names — verdict categories use the alive.Verdict names —
// for metrics exporters (the serving layer's Prometheus endpoint, obs
// event fields). Wall is excluded: exporters publish it separately as
// a seconds total.
func (s Stats) Counters() map[string]uint64 {
	out := map[string]uint64{
		"queries":  s.Queries,
		"canceled": s.Canceled,
	}
	for i, n := range s.ByVerdict {
		out[alive.Verdict(i).String()] = n
	}
	return out
}

// String renders the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("oracle: %d queries (%d equivalent, %d semantic, %d syntax, %d inconclusive, %d canceled), %v wall",
		s.Queries,
		s.ByVerdict[alive.Equivalent], s.ByVerdict[alive.SemanticError],
		s.ByVerdict[alive.SyntaxError], s.ByVerdict[alive.Inconclusive],
		s.Canceled, s.Wall.Round(time.Millisecond))
}

// StatsCollector accumulates per-verdict counters; safe for
// concurrent use. The zero value is ready.
type StatsCollector struct {
	queries   atomic.Uint64
	byVerdict [4]atomic.Uint64
	canceled  atomic.Uint64
	wallNanos atomic.Int64
}

// Snapshot returns the current counter values.
func (c *StatsCollector) Snapshot() Stats {
	s := Stats{
		Queries:  c.queries.Load(),
		Canceled: c.canceled.Load(),
		Wall:     time.Duration(c.wallNanos.Load()),
	}
	for i := range s.ByVerdict {
		s.ByVerdict[i] = c.byVerdict[i].Load()
	}
	return s
}

// WithStats counts every query's verdict category and wall time into
// c. Placed outermost in the canonical stack so the counters cover
// cache hits too — they are the per-query verdict distribution, not
// the solver workload (the cache engine's own stats cover that).
func WithStats(c *StatsCollector) Middleware {
	return func(next Oracle) Oracle {
		return Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			c.queries.Add(1)
			t0 := time.Now()
			res := next.Verify(ctx, src, tgt, opts)
			c.wallNanos.Add(int64(time.Since(t0)))
			if res.Verdict >= 0 && int(res.Verdict) < len(c.byVerdict) {
				c.byVerdict[res.Verdict].Add(1)
			}
			if res.Canceled {
				c.canceled.Add(1)
			}
			return res
		})
	}
}
