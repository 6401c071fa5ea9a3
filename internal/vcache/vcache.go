// Package vcache is the hot tier of the verdict storage spine: a
// thread-safe, bounded, in-memory cache of verification results with
// singleflight deduplication of identical in-flight queries, sitting
// over an optional durable Backing (internal/vstore) it overflows
// into and warm-starts from.
//
// Verification is a pure function of (source, target, Options), so
// verdicts are cached under the key
//
//	(ir.FingerprintText(src), ir.FingerprintText(dst), Options)
//
// which identifies functions up to whitespace. Identical queries in
// flight are deduplicated (singleflight): the second caller blocks on
// the first's result instead of re-running the solver.
//
// Tiering: a query that misses the hot tier falls through to the
// Backing before the solver; a backing hit promotes the entry into
// the hot tier. Computed verdicts are written through to the backing
// as they are produced (incremental appends — there is no flush
// cycle to lose work between). Eviction is promote-on-hit LRU, and an
// evicted entry demotes instead of discarding: it stays durable in
// the backing (a demote write covers the rare entry that is not yet
// there). With no backing the engine is exactly the bounded in-memory
// cache it always was.
//
// vcache is deliberately only a cache: it never invokes the verifier
// itself (the compute callback passed to Do does) and it owns no
// scheduling — the worker pool lives in internal/par, and the
// composition of cache, shard, and stats lives in internal/oracle.
package vcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// Key identifies one verification query. Options is comparable by
// design (see internal/alive); the whole Key is usable as a map key.
type Key struct {
	// Src and Dst are whitespace-normalized function texts
	// (ir.FingerprintText of the canonical printed form).
	Src, Dst string
	// Opts are the verification limits the verdict was produced under.
	Opts alive.Options
}

// Fingerprint condenses the key to the fixed-size form the storage
// and serving spine shares: the verdict store's index (internal/vstore)
// and the cluster coordinator's consistent-hash ring (internal/cluster)
// both key on it. The full key (src and dst are whole function texts)
// would make an index as large as the corpus; 32 bytes keeps millions
// of verdicts indexable and gives the ring a uniform hash. Collisions
// are handled by whoever stores values under it (vstore compares the
// full key at read time; the ring only routes, so a collision merely
// co-locates two queries).
func (k Key) Fingerprint() [sha256.Size]byte {
	blob, err := json.Marshal(k)
	if err != nil {
		// Key is strings and a flat struct of scalars; Marshal cannot
		// fail on it.
		panic("vcache: marshal key: " + err.Error())
	}
	return sha256.Sum256(blob)
}

// Backing is the durable tier under the in-memory cache, implemented
// by *vstore.Store. Get reports (result, found, error); Put persists
// one verdict. Implementations must be safe for concurrent use.
// Canceled results never reach a Backing (the engine filters them),
// and a Backing must refuse them anyway.
type Backing interface {
	Get(k Key) (alive.Result, bool, error)
	Put(k Key, res alive.Result) error
}

// Config sizes an Engine.
type Config struct {
	// MaxEntries bounds the number of cached verdicts (<= 0 selects
	// the default, 1<<17).
	MaxEntries int
	// Backing, when non-nil, is the durable cold tier: hot-tier misses
	// fall through to it, computed verdicts write through to it, and
	// evictions demote into it. It can also be attached later with
	// SetBacking.
	Backing Backing
}

// DefaultMaxEntries is the cache bound used when Config.MaxEntries is
// unset. At ~200 bytes per verdict this is tens of MB at worst.
const DefaultMaxEntries = 1 << 17

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// Queries counts all verification requests.
	Queries uint64
	// Hits counts requests answered without running the solver: from
	// the hot tier, from an identical in-flight query, or from the
	// backing (those are additionally counted under Promotions).
	Hits uint64
	// Misses counts requests that ran the compute callback.
	Misses uint64
	// Evictions counts hot-tier entries dropped to respect MaxEntries.
	Evictions uint64
	// Promotions counts queries answered from the backing and promoted
	// into the hot tier (a subset of Hits).
	Promotions uint64
	// Demotions counts evictions that landed in (or were already
	// durable in) the backing instead of being discarded — with a
	// backing attached this equals Evictions.
	Demotions uint64
	// StoreErrors counts failed backing reads and writes. The query is
	// still answered (by the solver, or from memory); the error only
	// costs durability or a promotion.
	StoreErrors uint64
	// BudgetExhausted counts verifier runs that hit the SAT conflict
	// budget (Inconclusive verdicts from solver exhaustion).
	BudgetExhausted uint64
	// SolverConflicts accumulates Result.SolverConflicts across live
	// (non-cached) compute runs: the SAT effort actually spent, as
	// opposed to effort saved by the cache.
	SolverConflicts uint64
	// Canceled counts queries that ended canceled: compute runs whose
	// context expired mid-solve (result returned but not stored),
	// dedup waiters whose own context expired before the owner's
	// result arrived, and queries whose context was already done at
	// entry. None of these are Hits or Misses — a canceled query was
	// never answered.
	Canceled uint64
	// Entries is the current hot-tier population.
	Entries int
	// WallTime is the cumulative time spent inside live (non-cached)
	// compute runs, summed across workers — with N workers it can
	// exceed elapsed time by up to a factor of N.
	WallTime time.Duration
}

// HitRate returns Hits/Queries, or 0 for an idle engine.
func (s Stats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// Counters returns the snapshot's monotonic counters under stable
// snake_case names, for metrics exporters (the serving layer's
// Prometheus endpoint, obs event fields). Entries and WallTime are
// excluded: they are gauges, not counters.
func (s Stats) Counters() map[string]uint64 {
	return map[string]uint64{
		"queries":          s.Queries,
		"hits":             s.Hits,
		"misses":           s.Misses,
		"evictions":        s.Evictions,
		"promotions":       s.Promotions,
		"demotions":        s.Demotions,
		"store_errors":     s.StoreErrors,
		"budget_exhausted": s.BudgetExhausted,
		"solver_conflicts": s.SolverConflicts,
		"canceled":         s.Canceled,
	}
}

// String renders the snapshot for logs and EXPERIMENTS.md.
func (s Stats) String() string {
	out := fmt.Sprintf("vcache: %d queries, %d hits (%.1f%%), %d misses, %d evictions, %d budget-exhausted, %d canceled, %d entries, %d solver conflicts, %v solver wall time",
		s.Queries, s.Hits, 100*s.HitRate(), s.Misses, s.Evictions, s.BudgetExhausted, s.Canceled, s.Entries, s.SolverConflicts, s.WallTime.Round(time.Millisecond))
	if s.Promotions > 0 || s.Demotions > 0 || s.StoreErrors > 0 {
		out += fmt.Sprintf(", %d promotions, %d demotions, %d store errors", s.Promotions, s.Demotions, s.StoreErrors)
	}
	return out
}

// call is one in-flight computation, shared by duplicate queriers.
type call struct {
	done chan struct{}
	res  alive.Result
}

// entry is one hot-tier resident; the LRU element's Value.
type entry struct {
	key Key
	res alive.Result
	// durable marks entries known to exist in the backing (written
	// through, or promoted out of it). Non-durable entries — their
	// write-through failed, or they predate SetBacking — get a demote
	// write on eviction so a backing never loses a verdict to the
	// hot-tier bound.
	durable bool
}

// demotion is an eviction that still needs its demote write, performed
// outside the engine lock.
type demotion struct {
	key Key
	res alive.Result
}

// Engine is the memoized verdict store's hot tier. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use.
type Engine struct {
	maxEntries int

	mu       sync.Mutex
	entries  map[Key]*list.Element
	lru      *list.List // front = most recently used
	inflight map[Key]*call
	backing  Backing

	queries         atomic.Uint64
	hits            atomic.Uint64
	misses          atomic.Uint64
	evictions       atomic.Uint64
	promotions      atomic.Uint64
	demotions       atomic.Uint64
	storeErrors     atomic.Uint64
	budgetExhausted atomic.Uint64
	solverConflicts atomic.Uint64
	canceled        atomic.Uint64
	wallNanos       atomic.Int64
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Engine{
		maxEntries: cfg.MaxEntries,
		entries:    make(map[Key]*list.Element),
		lru:        list.New(),
		inflight:   make(map[Key]*call),
		backing:    cfg.Backing,
	}
}

// SetBacking attaches (or replaces) the durable tier. Attach at boot,
// before queries flow; entries already resident stay marked
// non-durable and demote on eviction.
func (e *Engine) SetBacking(b Backing) {
	e.mu.Lock()
	e.backing = b
	e.mu.Unlock()
}

func (e *Engine) getBacking() Backing {
	e.mu.Lock()
	b := e.backing
	e.mu.Unlock()
	return b
}

// KeyOfFunc renders a function into cache-key form.
func KeyOfFunc(f *ir.Function) string { return ir.CanonicalKey(f) }

// Do returns the memoized result for k, running compute on a miss.
// Identical in-flight keys are deduplicated: duplicate callers block
// on the first caller's compute, or return a Canceled result as soon
// as their own ctx ends. Canceled results (ctx ended mid-compute) are
// returned but never stored — in either tier — so a later query under
// a live context re-runs the verifier.
//
// Lookup order: hot tier, in-flight duplicates, backing, solver. A
// backing hit counts as a Hit (and a Promotion) — the solver never
// ran. Stats classification otherwise as before: a query that returns
// early because its own ctx ended counts as Canceled, not as a Hit —
// it was never answered.
func (e *Engine) Do(ctx context.Context, k Key, compute func() alive.Result) alive.Result {
	e.queries.Add(1)

	// A context that is already done cannot be answered: skip the
	// cache and the solver alike and return promptly, counted under
	// Canceled so the hit rate only reflects answered queries.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			e.canceled.Add(1)
			return alive.CanceledResult(err)
		}
	}

	e.mu.Lock()
	if el, ok := e.entries[k]; ok {
		e.lru.MoveToFront(el)
		res := el.Value.(*entry).res
		e.mu.Unlock()
		e.hits.Add(1)
		return res
	}
	if c, ok := e.inflight[k]; ok {
		e.mu.Unlock()
		if ctx == nil {
			<-c.done
			e.hits.Add(1)
			return c.res
		}
		select {
		case <-c.done:
			e.hits.Add(1)
			return c.res
		case <-ctx.Done():
			// The waiter gave up before the owner's result arrived:
			// it got a Canceled result, not a cache answer.
			e.canceled.Add(1)
			return alive.CanceledResult(ctx.Err())
		}
	}
	c := &call{done: make(chan struct{})}
	e.inflight[k] = c
	b := e.backing
	e.mu.Unlock()

	// Miss in the hot tier: consult the cold tier before the solver.
	// The singleflight slot is already claimed, so concurrent
	// duplicates wait on this read instead of hammering the disk.
	if b != nil {
		res, ok, err := b.Get(k)
		if err != nil {
			e.storeErrors.Add(1)
		} else if ok && !res.Canceled {
			e.hits.Add(1)
			e.promotions.Add(1)
			c.res = res
			e.settle(k, c, res, true)
			return res
		}
	}
	e.misses.Add(1)

	t0 := time.Now()
	c.res = compute()
	e.wallNanos.Add(int64(time.Since(t0)))
	e.solverConflicts.Add(uint64(c.res.SolverConflicts))
	if c.res.Verdict == alive.Inconclusive && strings.Contains(c.res.Diag, "solver budget exhausted") {
		e.budgetExhausted.Add(1)
	}

	if c.res.Canceled {
		e.canceled.Add(1)
		e.mu.Lock()
		delete(e.inflight, k)
		e.mu.Unlock()
		close(c.done)
		return c.res
	}

	// Write through to the backing first (outside the lock): the
	// verdict is durable before — not eventually after — it becomes
	// evictable.
	durable := false
	if b != nil {
		if err := b.Put(k, c.res); err != nil {
			e.storeErrors.Add(1)
		} else {
			durable = true
		}
	}
	e.settle(k, c, c.res, durable)
	return c.res
}

// settle installs a finished computation into the hot tier, releases
// the singleflight slot, and performs any demote writes the insertion
// forced — outside the lock.
func (e *Engine) settle(k Key, c *call, res alive.Result, durable bool) {
	e.mu.Lock()
	demoted := e.store(k, res, durable)
	delete(e.inflight, k)
	e.mu.Unlock()
	close(c.done)
	e.demote(demoted)
}

// store inserts under e.mu as the most recent entry, evicting from the
// LRU tail as needed. It returns the evicted entries that still need a
// demote write; the caller performs them after releasing the lock.
func (e *Engine) store(k Key, res alive.Result, durable bool) []demotion {
	var demoted []demotion
	if el, ok := e.entries[k]; ok {
		ent := el.Value.(*entry)
		ent.res = res
		ent.durable = ent.durable || durable
		e.lru.MoveToFront(el)
		return nil
	}
	for len(e.entries) >= e.maxEntries && e.lru.Len() > 0 {
		el := e.lru.Back()
		ent := el.Value.(*entry)
		e.lru.Remove(el)
		delete(e.entries, ent.key)
		e.evictions.Add(1)
		if e.backing != nil {
			e.demotions.Add(1)
			if !ent.durable && !ent.res.Canceled {
				demoted = append(demoted, demotion{key: ent.key, res: ent.res})
			}
		}
	}
	// Queries against one source arrive together (a search's states, a
	// GRPO group's rollouts), each with its own copy of the source text.
	// Keep one: point the new key at a recent entry's equal Src.
	for el, n := e.lru.Front(), 0; el != nil && n < recentSources; el, n = el.Next(), n+1 {
		if src := el.Value.(*entry).key.Src; src == k.Src {
			k.Src = src
			break
		}
	}
	e.entries[k] = e.lru.PushFront(&entry{key: k, res: res, durable: durable})
	return demoted
}

// recentSources is how far from the LRU front store looks: enough for
// the searches or groups running at once to find their own entries.
const recentSources = 16

// demote performs the deferred demote writes for evicted entries that
// were not yet durable.
func (e *Engine) demote(demoted []demotion) {
	if len(demoted) == 0 {
		return
	}
	b := e.getBacking()
	if b == nil {
		return
	}
	for _, d := range demoted {
		if err := b.Put(d.key, d.res); err != nil {
			e.storeErrors.Add(1)
		}
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	n := len(e.entries)
	e.mu.Unlock()
	return Stats{
		Queries:         e.queries.Load(),
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		Evictions:       e.evictions.Load(),
		Promotions:      e.promotions.Load(),
		Demotions:       e.demotions.Load(),
		StoreErrors:     e.storeErrors.Load(),
		BudgetExhausted: e.budgetExhausted.Load(),
		SolverConflicts: e.solverConflicts.Load(),
		Canceled:        e.canceled.Load(),
		Entries:         n,
		WallTime:        time.Duration(e.wallNanos.Load()),
	}
}

// Reset drops all hot-tier verdicts and zeroes the counters (used by
// benchmarks that measure cold-cache throughput). The backing, if
// any, keeps its contents — Reset empties memory, not disk.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.entries = make(map[Key]*list.Element)
	e.lru = list.New()
	e.mu.Unlock()
	e.queries.Store(0)
	e.hits.Store(0)
	e.misses.Store(0)
	e.evictions.Store(0)
	e.promotions.Store(0)
	e.demotions.Store(0)
	e.storeErrors.Store(0)
	e.budgetExhausted.Store(0)
	e.solverConflicts.Store(0)
	e.canceled.Store(0)
	e.wallNanos.Store(0)
}
