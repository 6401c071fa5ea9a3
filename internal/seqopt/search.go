package seqopt

import (
	"context"
	"sort"

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
// share cache entries there.
type state struct {
	fn  *ir.Function
	key string
	seq []string
	m   costmodel.Metrics
}

// better orders states by cost: latency, then instruction count, then
// size, then canonical text — a strict total order, so sorting and
// best-tracking are deterministic regardless of exploration order.
func better(a, b *state) bool {
	if a.m.Latency != b.m.Latency {
		return a.m.Latency < b.m.Latency
	}
	if a.m.ICount != b.m.ICount {
		return a.m.ICount < b.m.ICount
	}
	if a.m.Size != b.m.Size {
		return a.m.Size < b.m.Size
	}
	return a.key < b.key
}

// expand applies every pass to st, verifies each unseen result
// against the search input f0, and returns the verified children in
// registry order. seen dedupes states across the whole search. A state
// is copied only for a pass whose finder fires on it, by the search's
// one copier c; a copy that is no new state (the pass changed nothing,
// or its key is seen) is released to c for the next, so only the new
// states, which go to the oracle and may join the frontier, keep memory
// of their own, never written again.
func expand(ctx context.Context, f0 *ir.Function, st *state, cfg SearchConfig, seen map[string]bool, res *SearchResult, c *ir.Copier) ([]*state, error) {
	var out []*state
	for _, p := range registry() {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		g, changed := p.try(st.fn, c)
		if !changed {
			continue
		}
		key := ir.CanonicalKey(g)
		if seen[key] {
			c.Release()
			continue
		}
		seen[key] = true
		res.States++
		vr := cfg.Oracle.Verify(ctx, f0, g, alive.DefaultOptions())
		res.Queries++
		if vr.Reason() == alive.Canceled {
			return out, ctx.Err()
		}
		if vr.Verdict != alive.Equivalent {
			continue
		}
		seq := make([]string, len(st.seq)+1)
		copy(seq, st.seq)
		seq[len(st.seq)] = p.name
		out = append(out, &state{fn: g, key: key, seq: seq, m: costmodel.Measure(g)})
	}
	return out, nil
}

// Beam runs beam search over pass sequences: at each depth every
// frontier state is expanded through every pass, candidates are
// verified equivalence-gated, and the beamWidth best survive. The global
// best over all verified states (including the untouched input) is
// returned. On cancellation the best state found so far is returned
// along with the context's error.
func Beam(ctx context.Context, f0 *ir.Function, cfg SearchConfig) (*SearchResult, error) {
	root := &state{fn: f0, key: ir.CanonicalKey(f0), m: costmodel.Measure(f0)}
	res := &SearchResult{Fn: f0, Base: root.m, Best: root.m}
	best := root
	seen := map[string]bool{root.key: true}
	frontier := []*state{root}
	var c ir.Copier
	for d := 0; d < searchDepth && len(frontier) > 0; d++ {
		var cands []*state
		for _, st := range frontier {
			kids, err := expand(ctx, f0, st, cfg, seen, res, &c)
			cands = append(cands, kids...)
			if err != nil {
				finish(res, best)
				return res, err
			}
		}
		sort.Slice(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
		if len(cands) > beamWidth {
			cands = cands[:beamWidth]
		}
		if len(cands) > 0 && better(cands[0], best) {
			best = cands[0]
		}
		frontier = cands
	}
	finish(res, best)
	return res, nil
}

// Greedy repeatedly takes the single pass that most improves verified
// latency, stopping when no pass strictly improves it. It is the
// cheap O(passes x depth) baseline against beam search.
func Greedy(ctx context.Context, f0 *ir.Function, cfg SearchConfig) (*SearchResult, error) {
	cur := &state{fn: f0, key: ir.CanonicalKey(f0), m: costmodel.Measure(f0)}
	res := &SearchResult{Fn: f0, Base: cur.m, Best: cur.m}
	seen := map[string]bool{cur.key: true}
	var c ir.Copier
	for d := 0; d < searchDepth; d++ {
		kids, err := expand(ctx, f0, cur, cfg, seen, res, &c)
		if err != nil {
			finish(res, cur)
			return res, err
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
	finish(res, cur)
	return res, nil
}

func finish(res *SearchResult, best *state) {
	res.Sequence = best.seq
	res.Fn = best.fn
	res.Best = best.m
}
