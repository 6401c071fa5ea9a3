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
// which identifies functions up to whitespace. What stays resident is
// the key's 32-byte Fingerprint, a SHA-256 of the key's own bytes that
// no store or peer persists, and the verdict, not the two texts: an
// entry is fixed-size whatever the functions were. Do is handed the two
// texts as bytes its caller printed (oracle.Stack.Verify prints them
// into arrays on its stack) and fingerprints them there; the strings of
// a full Key are made only for the Backing, once per hot-tier miss.
// Identical queries in flight are deduplicated (singleflight): the
// second caller blocks on the first's result instead of re-running the
// solver.
//
// Tiering: a query that misses the hot tier falls through to the
// Backing before the solver; a backing hit promotes the entry into
// the hot tier. Computed verdicts are written through to the backing
// as they are produced (incremental appends — there is no flush
// cycle to lose work between). Eviction is promote-on-hit LRU, and an
// evicted entry demotes instead of discarding: it stays durable in
// the backing (a demote write covers the rare entry whose write-through
// failed; only such an entry keeps its full key). With no backing the
// engine is exactly the bounded in-memory cache it always was.
//
// The engine sees every query, hits included, so it is where the
// queries are counted: Stats counts each answer Do returns by verdict
// and by reason, beside the cache's own hits, misses and tier traffic.
// vcache is deliberately only a cache: it never invokes the verifier
// itself (the compute callback passed to Do does) and it owns no
// scheduling — the worker pool lives in internal/par, and the
// composition of cache and shard lives in internal/oracle.
package vcache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// Key identifies one verification query. It is what callers and a
// Backing exchange; maps key on its Fingerprint (make lint).
type Key struct {
	// Src and Dst are whitespace-normalized function texts
	// (ir.FingerprintText of the canonical printed form).
	Src, Dst string
	// Opts are the verification limits the verdict was produced under.
	Opts alive.Options
}

// Fingerprint condenses the key to the fixed-size form the whole
// storage and serving spine shares: the hot tier's map, the verdict
// store's index (internal/vstore) and the cluster coordinator's
// consistent-hash ring (internal/cluster) all key on it. The full key
// (src and dst are whole function texts) would make an index as large
// as the corpus; 32 bytes keeps millions of verdicts indexable and
// gives the ring a uniform hash. The hot tier trusts the digest;
// vstore, which has the full key on disk anyway, compares it at read
// time; the ring only routes, so a collision merely co-locates two
// queries.
//
// The bytes are SHA-256 over the key's fields in order, each text as
// its length (8 bytes, little-endian) then its bytes, each option as an
// 8-byte little-endian integer: an encoding no two keys share, whatever
// bytes their texts hold. Nothing persists the digest, so its
// definition binds no store or peer: vstore keeps full keys and
// fingerprints each record at Open, and the ring lives in one process.
// A field added to Key or alive.Options must be appended here, and
// TestFingerprintMatchesReference fails until it is.
func (k Key) Fingerprint() [sha256.Size]byte {
	// No copy: fingerprint neither keeps nor writes the slices.
	return fingerprint([]byte(k.Src), []byte(k.Dst), k.Opts)
}

// fingerprint is the Fingerprint of the Key with the texts src and dst
// and the options opts, read off the bytes, so that Do fingerprints a
// query without making its key's strings.
func fingerprint(src, dst []byte, opts alive.Options) [sha256.Size]byte {
	var stack [2048]byte // corpus keys are 0.5-1.6 KB; a longer one spills to the heap
	b := append(binary.LittleEndian.AppendUint64(stack[:0], uint64(len(src))), src...)
	b = append(binary.LittleEndian.AppendUint64(b, uint64(len(dst))), dst...)
	b = binary.LittleEndian.AppendUint64(b, uint64(opts.MaxPaths))
	b = binary.LittleEndian.AppendUint64(b, uint64(opts.MaxSteps))
	return sha256.Sum256(binary.LittleEndian.AppendUint64(b, uint64(opts.SolverBudget)))
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
	// evictions demote into it. It is fixed for the engine's life.
	Backing Backing
}

// defaultMaxEntries is the cache bound used when Config.MaxEntries is
// unset. A resident verdict costs ≈ 200 bytes (a 112-byte entry and its
// map slot) plus what its Result owns — a SemanticError's Diag and
// Counterexample, ≈ 400 bytes — whatever the size of the functions:
// ≈ 325 bytes on a model-output mix (TestHotTierBytesPerEntry; 324 on
// the benchmark's serve-cold), so the bound is ≈ 43 MB of live heap.
const defaultMaxEntries = 1 << 17

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// Queries counts all verification requests.
	Queries uint64
	// ByVerdict counts the answers Do returned per verdict category,
	// indexed by alive.Verdict: hits, misses and canceled queries alike.
	ByVerdict [4]uint64
	// ByReason counts the same answers per alive.Reason, indexed by it
	// (the NoReason slot counts the verdicts that are not
	// Inconclusive).
	ByReason [6]uint64
	// Hits counts requests answered without running the solver: from
	// the hot tier, from an identical in-flight query, or from the
	// backing (those are additionally counted under Promotions).
	Hits uint64
	// Misses counts requests that ran the compute callback to a verdict.
	Misses uint64
	// Evictions counts hot-tier entries dropped to respect MaxEntries.
	Evictions uint64
	// Promotions counts queries answered from the backing and promoted
	// into the hot tier (a subset of Hits).
	Promotions uint64
	// Demotions counts evictions into the backing: the verdict was
	// written through, came from the backing, or is written now. It is
	// Evictions whenever a backing exists, and 0 otherwise.
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
	// Canceled counts queries that ended canceled, ByReason's Canceled
	// slot: compute runs whose context expired mid-solve (result
	// returned but not stored), dedup waiters whose own context expired
	// before the owner's result arrived, and queries whose context was
	// already done at entry. None of these are Hits or Misses — a
	// canceled query was never answered.
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

// Verdicts returns the answers' counts under stable snake_case names
// ("queries", the alive.Verdict names and the alive.Reason ones) for
// the serving layer's veriopt_oracle_total family.
func (s Stats) Verdicts() map[string]uint64 {
	out := map[string]uint64{"queries": s.Queries}
	for i, n := range s.ByVerdict {
		out[alive.Verdict(i).String()] = n
	}
	for r := alive.NoReason + 1; int(r) < len(s.ByReason); r++ {
		out[r.String()] = s.ByReason[r]
	}
	return out
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

// entry is one verdict, in the engine's map from the start of its
// computation: in flight (prev is nil) until it settles, then a hot-tier
// resident, linked into the engine's LRU ring.
type entry struct {
	fp         [sha256.Size]byte
	res        alive.Result
	prev, next *entry
	// owed is the full key of a verdict the backing still lacks (its
	// write-through failed), kept for the demote write at eviction.
	// It is nil for every other entry: written through, promoted, or
	// made by an engine with no backing.
	owed *Key
	// done, made under e.mu by the first duplicate caller to wait,
	// closes when the computation settles, which drops it.
	done chan struct{}
}

// unlink takes ent out of the LRU ring; pushFront makes it the most
// recent. Both run under e.mu.
func (ent *entry) unlink() {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
}

func (e *Engine) pushFront(ent *entry) {
	ent.prev, ent.next = &e.lru, e.lru.next
	ent.prev.next, ent.next.prev = ent, ent
}

// Engine is the memoized verdict store's hot tier and its singleflight
// in one map of entries. The zero value is not usable; construct with
// New. All methods are safe for concurrent use.
type Engine struct {
	maxEntries int

	backing Backing // fixed at New

	mu       sync.Mutex
	entries  map[[sha256.Size]byte]*entry // in flight and resident alike
	lru      entry                        // ring sentinel: next = most recently used, prev = coldest
	resident int                          // entries linked into the ring, what MaxEntries bounds

	queries         atomic.Uint64
	byVerdict       [4]atomic.Uint64
	byReason        [6]atomic.Uint64
	hits            atomic.Uint64
	misses          atomic.Uint64
	evictions       atomic.Uint64
	promotions      atomic.Uint64
	storeErrors     atomic.Uint64
	budgetExhausted atomic.Uint64
	solverConflicts atomic.Uint64
	wallNanos       atomic.Int64
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = defaultMaxEntries
	}
	e := &Engine{
		maxEntries: cfg.MaxEntries,
		backing:    cfg.Backing,
		entries:    make(map[[sha256.Size]byte]*entry),
	}
	e.lru.prev, e.lru.next = &e.lru, &e.lru
	return e
}

// KeyOfFunc renders a function into cache-key form: ir.CanonicalKey,
// whose bytes ir.AppendCanonicalKey prints into a caller's buffer.
func KeyOfFunc(f *ir.Function) string { return ir.CanonicalKey(f) }

// Do returns the memoized result for the query whose key has the texts
// src and dst (KeyOfFunc's bytes) and the options opts, running compute
// on a miss. Do only reads src and dst, and not after it returns: it
// fingerprints them, and spells out the Key only on a hot-tier miss
// with a Backing, once, for the backing's Get and Put alike. ctx is
// never nil (oracle.Stack.Verify, the one production caller, decides a
// nil one).
// Identical in-flight keys are deduplicated: duplicate callers block
// on the first caller's compute, or return a Canceled result as soon
// as their own ctx ends. Canceled results (ctx ended mid-compute) are
// returned but never stored — in either tier — and never shared: they
// say that the owner's caller left, not anything about the query, so a
// waiter that wakes to one goes round again under its own context.
//
// Lookup order: the map (a resident, or a duplicate in flight to wait
// on), backing, solver. A backing hit counts as a Hit (and a Promotion)
// — the solver never ran. A query that ends Canceled — its ctx done at
// entry, while it waited, or mid-compute — counts as Canceled, not as a
// Hit or a Miss: it was never answered. Every result Do returns, however it was
// reached, is counted once under its verdict and its reason.
func (e *Engine) Do(ctx context.Context, src, dst []byte, opts alive.Options, compute func() alive.Result) alive.Result {
	e.queries.Add(1)
	res := e.answer(ctx, src, dst, opts, compute)
	if res.Verdict >= 0 && int(res.Verdict) < len(e.byVerdict) {
		e.byVerdict[res.Verdict].Add(1)
	}
	e.byReason[res.Reason()].Add(1)
	return res
}

// answer is Do's lookup, which Do counts.
func (e *Engine) answer(ctx context.Context, src, dst []byte, opts alive.Options, compute func() alive.Result) alive.Result {
	fp := fingerprint(src, dst, opts)
	for {
		// A context that is already done cannot be answered: skip the
		// cache and the solver alike and return promptly, counted under
		// Canceled so the hit rate only reflects answered queries.
		if err := ctx.Err(); err != nil {
			return alive.CanceledResult(err)
		}
		e.mu.Lock()
		ent, ok := e.entries[fp]
		if !ok {
			break // still holding e.mu: this caller becomes the owner
		}
		if ent.prev != nil { // linked: a resident; unlinked, it is in flight
			ent.unlink()
			e.pushFront(ent)
			res := ent.res
			e.mu.Unlock()
			e.hits.Add(1)
			return res
		}
		if ent.done == nil {
			ent.done = make(chan struct{})
		}
		done := ent.done
		e.mu.Unlock()
		// Done is asked for only here: a context makes its channel on
		// the first call, and most queries never wait.
		select {
		case <-done:
		case <-ctx.Done():
			// The waiter gave up before the owner's result arrived:
			// it got a Canceled result, not a cache answer.
			return alive.CanceledResult(ctx.Err())
		}
		if ent.res.Reason() != alive.Canceled {
			e.hits.Add(1)
			return ent.res
		}
	}
	// The entry goes into the map in flight, and settle links it into
	// the ring where it is: one allocation per miss.
	c := &entry{fp: fp}
	e.entries[fp] = c
	e.mu.Unlock()
	defer e.abandon(c)

	// Miss in the hot tier: consult the cold tier before the solver.
	// The singleflight slot is already claimed, so concurrent
	// duplicates wait on this read instead of hammering the disk.
	var k Key // the full key, made only for the backing
	if e.backing != nil {
		k = Key{Src: string(src), Dst: string(dst), Opts: opts}
		res, ok, err := e.backing.Get(k)
		if err != nil {
			e.storeErrors.Add(1)
		} else if ok && res.Reason() != alive.Canceled {
			e.hits.Add(1)
			e.promotions.Add(1)
			c.res = res
			e.settle(c)
			return res
		}
	}
	t0 := time.Now()
	c.res = compute()
	e.wallNanos.Add(int64(time.Since(t0)))
	e.solverConflicts.Add(uint64(c.res.SolverConflicts))
	reason := c.res.Reason()
	if reason == alive.ConflictBudget {
		e.budgetExhausted.Add(1)
	}

	if reason == alive.Canceled {
		e.leave(c)
		return c.res
	}
	e.misses.Add(1)

	// Write through to the backing first (outside the lock): the
	// verdict is durable before — not eventually after — it becomes
	// evictable. Only a failed write leaves the entry owing one, and
	// only then does it keep the key.
	if e.backing != nil {
		if err := e.backing.Put(k, c.res); err != nil {
			e.storeErrors.Add(1)
			kept := k // a copy, so that k itself stays on the caller's stack
			c.owed = &kept
		}
	}
	e.settle(c)
	return c.res
}

// abandon releases the singleflight slot of an entry that never settled
// because backing.Get or compute panicked, and lets the panic go on up:
// later callers compute the key again, and a waiter woken here reads a
// Canceled result and goes round, as it does when the owner's caller
// left, rather than the zero Result, whose verdict is Equivalent. An
// entry that settled is linked, and one that left is out of the map.
func (e *Engine) abandon(c *entry) {
	e.mu.Lock()
	flying := c.prev == nil && e.entries[c.fp] == c
	e.mu.Unlock()
	if flying {
		c.res = alive.CanceledResult(nil)
		e.leave(c)
	}
}

// leave takes an entry the hot tier does not keep out of the map,
// waking whoever waits for it.
func (e *Engine) leave(c *entry) {
	e.mu.Lock()
	delete(e.entries, c.fp)
	done := c.done
	e.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// settle links a finished computation into the hot tier, wakes whoever
// waits for it, and performs any demote writes the insertion forced —
// outside the lock.
func (e *Engine) settle(c *entry) {
	e.mu.Lock()
	demoted := e.store(c)
	done := c.done
	c.done = nil
	e.mu.Unlock()
	if done != nil {
		close(done)
	}
	for _, ent := range demoted {
		if err := e.backing.Put(*ent.owed, ent.res); err != nil {
			e.storeErrors.Add(1)
		}
	}
}

// store links ent, already in the map, under e.mu as the most recent
// resident, evicting from the LRU tail (where no entry in flight is) as
// needed. It returns the evicted entries that still owe the backing a
// write (none without a backing); the caller performs them after
// releasing the lock.
func (e *Engine) store(ent *entry) []*entry {
	var demoted []*entry
	for e.resident >= e.maxEntries {
		old := e.lru.prev
		old.unlink()
		delete(e.entries, old.fp)
		e.resident--
		e.evictions.Add(1)
		if old.owed != nil {
			demoted = append(demoted, old)
		}
	}
	e.resident++
	e.pushFront(ent)
	return demoted
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	n := e.resident
	e.mu.Unlock()
	s := Stats{
		Queries:         e.queries.Load(),
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		Evictions:       e.evictions.Load(),
		Promotions:      e.promotions.Load(),
		StoreErrors:     e.storeErrors.Load(),
		BudgetExhausted: e.budgetExhausted.Load(),
		SolverConflicts: e.solverConflicts.Load(),
		Entries:         n,
		WallTime:        time.Duration(e.wallNanos.Load()),
	}
	for i := range s.ByVerdict {
		s.ByVerdict[i] = e.byVerdict[i].Load()
	}
	for i := range s.ByReason {
		s.ByReason[i] = e.byReason[i].Load()
	}
	s.Canceled = s.ByReason[alive.Canceled]
	if e.backing != nil {
		s.Demotions = s.Evictions
	}
	return s
}
