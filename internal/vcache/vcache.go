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
// the key's 32-byte Fingerprint and the verdict, not the two texts: an
// entry is fixed-size whatever the functions were. Identical queries in
// flight are deduplicated (singleflight): the second caller blocks on
// the first's result instead of re-running the solver.
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
// vcache is deliberately only a cache: it never invokes the verifier
// itself (the compute callback passed to Do does) and it owns no
// scheduling — the worker pool lives in internal/par, and the
// composition of cache, shard, and stats lives in internal/oracle.
package vcache

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

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
// The bytes are sha256(json.Marshal(k)). A store keeps no digest on
// disk: Open fingerprints each record's stored full key, so what a
// record's options decode to decides the bytes. They are produced without
// encoding/json (which costs two allocations and three times the CPU
// of the hash) by appending the same JSON into a stack buffer; a field
// added to Key or alive.Options must be appended here, and
// TestFingerprintMatchesReference fails until it is.
func (k Key) Fingerprint() [sha256.Size]byte {
	var stack [2048]byte // corpus keys are 0.5-1.6 KB as JSON; a longer one spills to the heap
	b := appendJSONString(append(stack[:0], `{"Src":`...), k.Src)
	b = appendJSONString(append(b, `,"Dst":`...), k.Dst)
	b = strconv.AppendInt(append(b, `,"Opts":{"MaxPaths":`...), int64(k.Opts.MaxPaths), 10)
	b = strconv.AppendInt(append(b, `,"MaxSteps":`...), int64(k.Opts.MaxSteps), 10)
	b = strconv.AppendInt(append(b, `,"SolverBudget":`...), int64(k.Opts.SolverBudget), 10)
	return sha256.Sum256(append(b, "}}"...))
}

// jsonEscape[c] is 0 for a byte json.Marshal copies into a string and
// otherwise the letter after its backslash; 'u' is \u00XX, or for a
// byte >= 0x80 whatever its rune turns out to need.
var jsonEscape = func() (t [256]byte) {
	for c := range t {
		if c < ' ' || c >= utf8.RuneSelf || c == '<' || c == '>' || c == '&' {
			t[c] = 'u'
		}
	}
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// appendJSONString appends s quoted the way json.Marshal quotes a
// string: `"`, `\`, control bytes, the HTML-unsafe `<` `>` `&` and
// U+2028/U+2029 escaped, each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] is read but not yet copied
	for i := 0; i < len(s); {
		e := jsonEscape[s[i]]
		if e == 0 {
			i++
			continue
		}
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf { // an invalid byte decodes as (U+FFFD, 1)
			if r, size = utf8.DecodeRuneInString(s[i:]); size > 1 && r != '\u2028' && r != '\u2029' {
				i += size
				continue
			}
		}
		b = append(b, s[start:i]...)
		i += size
		start = i
		if e != 'u' {
			b = append(b, '\\', e)
		} else {
			b = append(b, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
	}
	return append(append(b, s[start:]...), '"')
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

// DefaultMaxEntries is the cache bound used when Config.MaxEntries is
// unset. A resident verdict costs ≈ 200 bytes (a 112-byte entry and its
// map slot) plus what its Result owns — a SemanticError's Diag and
// Counterexample, ≈ 400 bytes — whatever the size of the functions:
// ≈ 325 bytes on a model-output mix (TestHotTierBytesPerEntry; 324 on
// the benchmark's serve-cold), so the bound is ≈ 43 MB of live heap.
const DefaultMaxEntries = 1 << 17

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// Queries counts all verification requests.
	Queries uint64
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
	// written through, came from the backing, or is written now. It
	// equals Evictions whenever a backing exists, and is 0 otherwise.
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

// entry is one hot-tier resident, linked into the engine's LRU ring.
type entry struct {
	fp         [sha256.Size]byte
	res        alive.Result
	prev, next *entry
	// owed is the full key of a verdict the backing still lacks (its
	// write-through failed), kept for the demote write at eviction.
	// It is nil for every other entry: written through, promoted, or
	// made by an engine with no backing.
	owed *Key
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

// Engine is the memoized verdict store's hot tier. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use.
type Engine struct {
	maxEntries int

	backing Backing // fixed at New

	mu       sync.Mutex
	entries  map[[sha256.Size]byte]*entry
	lru      entry // ring sentinel: next = most recently used, prev = coldest
	inflight map[[sha256.Size]byte]*call

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
	e := &Engine{
		maxEntries: cfg.MaxEntries,
		backing:    cfg.Backing,
		entries:    make(map[[sha256.Size]byte]*entry),
		inflight:   make(map[[sha256.Size]byte]*call),
	}
	e.lru.prev, e.lru.next = &e.lru, &e.lru
	return e
}

// KeyOfFunc renders a function into cache-key form.
func KeyOfFunc(f *ir.Function) string { return ir.CanonicalKey(f) }

// Do returns the memoized result for k, running compute on a miss.
// Identical in-flight keys are deduplicated: duplicate callers block
// on the first caller's compute, or return a Canceled result as soon
// as their own ctx ends. Canceled results (ctx ended mid-compute) are
// returned but never stored — in either tier — and never shared: they
// say that the owner's caller left, not anything about the query, so a
// waiter that wakes to one goes round again under its own context.
//
// Lookup order: hot tier, in-flight duplicates, backing, solver. A
// backing hit counts as a Hit (and a Promotion) — the solver never
// ran. A query that ends Canceled — its ctx done at entry, while it
// waited, or mid-compute — counts as Canceled, not as a Hit or a Miss:
// it was never answered.
func (e *Engine) Do(ctx context.Context, k Key, compute func() alive.Result) alive.Result {
	e.queries.Add(1)
	fp := k.Fingerprint()
	for {
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
		if ent, ok := e.entries[fp]; ok {
			ent.unlink()
			e.pushFront(ent)
			res := ent.res
			e.mu.Unlock()
			e.hits.Add(1)
			return res
		}
		c, ok := e.inflight[fp]
		if !ok {
			break // still holding e.mu: this caller becomes the owner
		}
		e.mu.Unlock()
		// Done is asked for only here: a context makes its channel on
		// the first call, and most queries never wait.
		var ctxDone <-chan struct{} // nil, and so never ready, without a ctx
		if ctx != nil {
			ctxDone = ctx.Done()
		}
		select {
		case <-c.done:
		case <-ctxDone:
			// The waiter gave up before the owner's result arrived:
			// it got a Canceled result, not a cache answer.
			e.canceled.Add(1)
			return alive.CanceledResult(ctx.Err())
		}
		if c.res.Reason() != alive.Canceled {
			e.hits.Add(1)
			return c.res
		}
	}
	c := &call{done: make(chan struct{})}
	e.inflight[fp] = c
	e.mu.Unlock()

	// Miss in the hot tier: consult the cold tier before the solver.
	// The singleflight slot is already claimed, so concurrent
	// duplicates wait on this read instead of hammering the disk.
	if e.backing != nil {
		res, ok, err := e.backing.Get(k)
		if err != nil {
			e.storeErrors.Add(1)
		} else if ok && res.Reason() != alive.Canceled {
			e.hits.Add(1)
			e.promotions.Add(1)
			c.res = res
			e.settle(fp, c, nil)
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
		e.canceled.Add(1)
		e.mu.Lock()
		delete(e.inflight, fp)
		e.mu.Unlock()
		close(c.done)
		return c.res
	}
	e.misses.Add(1)

	// Write through to the backing first (outside the lock): the
	// verdict is durable before — not eventually after — it becomes
	// evictable. Only a failed write leaves the entry owing one, and
	// only then does it keep the key.
	var owed *Key
	if e.backing != nil {
		if err := e.backing.Put(k, c.res); err != nil {
			e.storeErrors.Add(1)
			kept := k // a copy, so that k itself stays on the caller's stack
			owed = &kept
		}
	}
	e.settle(fp, c, owed)
	return c.res
}

// settle installs a finished computation into the hot tier, releases
// the singleflight slot, and performs any demote writes the insertion
// forced — outside the lock.
func (e *Engine) settle(fp [sha256.Size]byte, c *call, owed *Key) {
	e.mu.Lock()
	demoted := e.store(fp, c.res, owed)
	delete(e.inflight, fp)
	e.mu.Unlock()
	close(c.done)
	for _, ent := range demoted {
		if err := e.backing.Put(*ent.owed, ent.res); err != nil {
			e.storeErrors.Add(1)
		}
	}
}

// store inserts under e.mu as the most recent entry, evicting from the
// LRU tail as needed. It returns the evicted entries that still owe the
// backing a write (none without a backing); the caller performs them
// after releasing the lock. The singleflight slot its caller holds
// means fp is not resident.
func (e *Engine) store(fp [sha256.Size]byte, res alive.Result, owed *Key) []*entry {
	var demoted []*entry
	for len(e.entries) >= e.maxEntries {
		ent := e.lru.prev
		ent.unlink()
		delete(e.entries, ent.fp)
		e.evictions.Add(1)
		if e.backing != nil {
			e.demotions.Add(1)
			if ent.owed != nil {
				demoted = append(demoted, ent)
			}
		}
	}
	ent := &entry{fp: fp, res: res, owed: owed}
	e.entries[fp] = ent
	e.pushFront(ent)
	return demoted
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
