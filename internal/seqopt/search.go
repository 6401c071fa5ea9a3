package seqopt

import (
	"cmp"
	"context"
	"slices"
	"strings"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
)

// The search's shape: beamWidth states survive each depth of Beam, and
// no sequence of Beam or Greedy is longer than searchDepth passes.
const (
	beamWidth   = 4
	searchDepth = 4
)

// SearchConfig names what a phase-ordering search asks.
type SearchConfig struct {
	// Oracle answers equivalence queries; it is required. Every query
	// of a search runs under alive.DefaultOptions(), so one warm cache
	// serves the whole search.
	Oracle oracle.Oracle
}

// SearchResult reports the best verified state a search found.
type SearchResult struct {
	// Sequence is the ordered pass list reaching Fn (empty when no
	// verified improvement exists: Fn is then the input itself).
	Sequence []string
	// Fn is the best verified function found.
	Fn *ir.Function
	// Base and Best are the cost-model metrics of the input and of Fn.
	Base, Best costmodel.Metrics
	// States counts unique non-input states explored; Queries counts
	// oracle queries issued (one per unique state — dedupe means a
	// state reached via two prefixes is verified once, and the verdict
	// cache under the oracle dedupes across searches too).
	States, Queries int
}

// state is one node of the search graph. key is ir.CanonicalKey(fn),
// the key the verdict cache uses, so states that dedupe here also
// share cache entries there. A state names only the pass that made it
// from its parent; finish spells out the winner's sequence.
type state struct {
	fn     *ir.Function
	key    string
	parent *state // nil for the search input
	pass   string
	m      costmodel.Metrics
}

// compare orders states by cost: latency, then instruction count, then
// size, then canonical text — a strict total order, so sorting and
// best-tracking are deterministic regardless of exploration order.
func compare(a, b *state) int {
	return cmp.Or(cmp.Compare(a.m.Latency, b.m.Latency), cmp.Compare(a.m.ICount, b.m.ICount),
		cmp.Compare(a.m.Size, b.m.Size), strings.Compare(a.key, b.key))
}

// better reports whether a sorts before b.
func better(a, b *state) bool { return compare(a, b) < 0 }

// search is what one Beam or Greedy holds across its expansions: the
// input, the states seen (by key), the result so far, the one copier
// every state is copied by, so that the states share its chunks, and
// the buffer each copy's key is printed into.
type search struct {
	f0   *ir.Function
	cfg  SearchConfig
	seen map[string]bool
	res  *SearchResult
	c    ir.Copier
	key  []byte
}

// newSearch starts a search of f0, returning it with the root state.
// The key buffer starts as f0's key, printed at the size of f0: the
// states after it are passes' outputs, and rarely larger.
func newSearch(f0 *ir.Function, cfg SearchConfig) (search, *state) {
	key := ir.AppendCanonicalKey(nil, f0)
	root := &state{fn: f0, key: string(key), m: costmodel.Measure(f0)}
	return search{f0: f0, cfg: cfg, seen: map[string]bool{root.key: true},
		res: &SearchResult{Fn: f0, Base: root.m, Best: root.m}, key: key}, root
}

// expand applies every pass to st, verifies each unseen result
// against the search input, and appends the verified children to out
// in registry order, returning it. A state is copied only for a pass
// whose finder fires on it, by the search's one copier; its key is
// printed into the search's buffer and looked up there, and becomes a
// string only for a new state. A copy that is no new state (the pass
// changed nothing, or its key is seen) is released to the copier for
// the next, so only the new states, which go to the oracle and may join
// the frontier, keep their memory, never written again.
func (s *search) expand(ctx context.Context, st *state, out []*state) ([]*state, error) {
	for _, p := range registry {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		g, changed := p.try(st.fn, &s.c)
		if !changed {
			continue
		}
		s.key = ir.AppendCanonicalKey(s.key[:0], g)
		if s.seen[string(s.key)] {
			s.c.Release()
			continue
		}
		key := string(s.key)
		s.seen[key] = true
		s.res.States++
		vr := s.cfg.Oracle.Verify(ctx, s.f0, g, alive.DefaultOptions())
		s.res.Queries++
		if vr.Reason() == alive.Canceled {
			return out, ctx.Err()
		}
		if vr.Verdict != alive.Equivalent {
			continue
		}
		out = append(out, &state{fn: g, key: key, parent: st, pass: p.name, m: costmodel.Measure(g)})
	}
	return out, nil
}

// Beam runs beam search over pass sequences: at each depth every
// frontier state is expanded through every pass, candidates are
// verified equivalence-gated, and the beamWidth best survive. The global
// best over all verified states (including the untouched input) is
// returned. On cancellation the best state found so far is returned
// along with the context's error. A depth's candidates fill one half
// of a list sized for a child per pass of a full frontier, and the
// frontier is what the depth before left in the other half.
func Beam(ctx context.Context, f0 *ir.Function, cfg SearchConfig) (*SearchResult, error) {
	s, root := newSearch(f0, cfg)
	best, frontier := root, []*state{root}
	n := beamWidth * len(registry)
	lists := make([]*state, 2*n)
	for d := 0; d < searchDepth && len(frontier) > 0; d++ {
		cands := lists[d%2*n : d%2*n : (d%2+1)*n]
		for _, st := range frontier {
			var err error
			if cands, err = s.expand(ctx, st, cands); err != nil {
				return s.finish(best), err
			}
		}
		slices.SortFunc(cands, compare)
		if len(cands) > beamWidth {
			cands = cands[:beamWidth]
		}
		if len(cands) > 0 && better(cands[0], best) {
			best = cands[0]
		}
		frontier = cands
	}
	return s.finish(best), nil
}

// Greedy repeatedly takes the single pass that most improves verified
// latency, stopping when no pass strictly improves it. It is the
// cheap O(passes x depth) baseline against beam search. Every depth's
// children take one list, sized for a child per pass.
func Greedy(ctx context.Context, f0 *ir.Function, cfg SearchConfig) (*SearchResult, error) {
	s, cur := newSearch(f0, cfg)
	kids := make([]*state, 0, len(registry))
	for d := 0; d < searchDepth; d++ {
		var err error
		if kids, err = s.expand(ctx, cur, kids[:0]); err != nil {
			return s.finish(cur), err
		}
		var next *state
		for _, k := range kids {
			if next == nil || better(k, next) {
				next = k
			}
		}
		if next == nil || next.m.Latency >= cur.m.Latency {
			break
		}
		cur = next
	}
	return s.finish(cur), nil
}

// finish records best as the search's winner, its pass sequence read
// off its parents and itself copied into fresh memory unless it is the
// input (the states share the search's chunks, and a result kept in
// them would keep them all), and returns the result.
func (s *search) finish(best *state) *SearchResult {
	n := 0
	for st := best; st.parent != nil; st = st.parent {
		n++
	}
	s.res.Fn, s.res.Best = best.fn, best.m
	if n > 0 {
		s.res.Fn, s.res.Sequence = ir.CloneFunc(best.fn), make([]string, n)
		for st := best; st.parent != nil; st = st.parent {
			n--
			s.res.Sequence[n] = st.pass
		}
	}
	return s.res
}
