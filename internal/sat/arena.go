package sat

import "math"

// Clause memory (DESIGN.md §13). Every clause lives in Solver.arena:
// a header word size<<1|learnt, for a learnt clause the two halves of
// its float64 activity, then the literals. A cref is the index of the
// header. The search never depends on where a clause sits, only on the
// order of the clause lists and watch lists.
type cref int32

const noClause cref = -1

// lits returns the clause's literals in place, valid until the next
// alloc or compact.
func (s *Solver) lits(c cref) []Lit {
	h := s.arena[c]
	at := c + 1 + 2*cref(h&1)
	return s.arena[at : at+cref(h>>1)]
}

func (s *Solver) isLearnt(c cref) bool { return s.arena[c]&1 == 1 }

// Activity stays a float64: rounded to one word it would order
// reduceDB differently and change the search.
func (s *Solver) act(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c+1])) | uint64(uint32(s.arena[c+2]))<<32)
}

func (s *Solver) setAct(c cref, a float64) {
	b := math.Float64bits(a)
	s.arena[c+1], s.arena[c+2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// words is the arena footprint of the clause with header h.
func words(h Lit) int { return 1 + 2*int(h&1) + int(h>>1) }

func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	if len(s.arena)+len(lits)+3 > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 words") // a wrapped cref would alias another clause
	}
	c := cref(len(s.arena))
	if learnt {
		s.arena = append(s.arena, Lit(len(lits))<<1|1, 0, 0)
	} else {
		s.arena = append(s.arena, Lit(len(lits))<<1)
	}
	s.arena = append(s.arena, lits...)
	return c
}

// free unwatches a clause the caller dropped from its list and counts
// its words as dead.
func (s *Solver) free(c cref) {
	s.unwatch(c)
	s.wasted += words(s.arena[c])
}

// compact reclaims dead clauses once they outweigh the live ones, as
// MiniSat's relocAll does: live clauses are copied to a fresh arena in
// list order, each old header becomes the complement of the new cref,
// and reasons and watchers follow that forwarding word. No list is
// reordered.
func (s *Solver) compact() {
	if 2*s.wasted <= len(s.arena) {
		return
	}
	old := s.arena
	s.arena = make([]Lit, 0, len(old)-s.wasted)
	move := func(c cref) cref {
		if old[c] >= 0 {
			to := cref(len(s.arena))
			s.arena = append(s.arena, old[c:int(c)+words(old[c])]...)
			old[c] = Lit(^to)
		}
		return cref(^old[c])
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for v, c := range s.reason {
		if c != noClause {
			s.reason[v] = move(c)
		}
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = move(ws[i].c)
		}
	}
	s.wasted = 0
}

// slabPerLit is how many watchers a literal's list holds before its
// first allocation of its own. Lists are carved from a shared slab with
// capped capacity, so one that outgrows its share reallocates instead
// of running into its neighbour's; refills double with the variables.
const slabPerLit = 4

func (s *Solver) newWatchList() []watcher {
	if len(s.slab) < slabPerLit {
		s.slab = make([]watcher, 2*slabPerLit*max(s.nVars, 32))
	}
	ws := s.slab[:0:slabPerLit]
	s.slab = s.slab[slabPerLit:]
	return ws
}
