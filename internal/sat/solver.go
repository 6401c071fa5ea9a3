// Package sat implements a CDCL (conflict-driven clause learning)
// boolean satisfiability solver with two-watched-literal propagation,
// VSIDS-style activity-based decisions, first-UIP clause learning,
// phase saving, and Luby restarts. It is the decision procedure
// underlying the bit-blasted bit-vector checks in internal/bv and
// internal/alive.
//
// The solver is incremental: clauses may be added between Solve
// calls, and Solve accepts assumption literals that hold only for
// that call. Learnt clauses, variable activities, and saved phases
// persist across calls, so a stream of near-identical queries (the
// refinement queries of one verification, each guarded by its own
// activation literal) reuses earlier search effort instead of
// starting from scratch.
package sat

import (
	"errors"
	"sort"
)

// Lit is a literal: variable index shifted left with the low bit as
// the sign (0 = positive, 1 = negated). Variables are 0-based.
type Lit int32

// MkLit builds a literal for variable v, negated if neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

// The encoding is chosen so that negating a defined value is "xor 1"
// — the same bit Lit uses for its sign — making valueLit branch-free.
// An undefined value xored with a sign bit yields 2 or 3; comparisons
// therefore test == lTrue / == lFalse (never == lUndef on a literal
// value) and let both undefined encodings fall through.
const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// Status is a solver result.
type Status int

// Solver results.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// errBudget is returned when the solver exceeds its conflict budget, and
// is the only error Solve returns.
var errBudget = errors.New("sat: conflict budget exhausted")

// ProofSink receives a solver's clausal proof as it is produced, for
// an independent checker (internal/ruptest) to replay every Unsat by
// unit propagation alone. Each call owns its slice.
type ProofSink interface {
	// Axiom is a clause as passed to AddClause, before simplification.
	Axiom(lits []Lit)
	// Lemma is a learnt clause, units included, in the order learnt.
	Lemma(lits []Lit)
	// Unsat is an Unsat answer from Solve under these assumptions.
	Unsat(assumptions []Lit)
}

// watcher is one watch-list entry: the clause plus a blocker literal
// (some other literal of the clause). If the blocker is already true
// the clause is satisfied and propagation skips it without touching
// the clause memory at all — most watch-list traffic in a long session
// exits through this check.
type watcher struct {
	c       cref
	blocker Lit
}

// Solver is a CDCL SAT solver instance. Zero value is not usable; use
// New.
type Solver struct {
	arena    []Lit     // clause memory, see arena.go
	wasted   int       // arena words of freed clauses
	slab     []watcher // unclaimed rest of the current watch-list chunk
	clauses  []cref
	learnts  []cref
	watches  [][]watcher // literal -> watching clauses
	assign   []lbool     // variable -> value
	level    []int       // variable -> decision level
	reason   []cref      // variable -> implying clause, or noClause
	activity []float64
	varInc   float64
	claInc   float64
	trail    []Lit
	trailLim []int
	qhead    int
	order    *varHeap
	seen     []bool
	phase    []bool // saved polarity per variable (last assigned value)
	minBuf   []Lit  // scratch for learnt-clause minimization
	learnt   []Lit  // scratch: analyze's result, until Solve copies it into the arena

	// Budget bounds the total number of conflicts across Solve calls;
	// 0 means unlimited.
	Budget    int
	conflicts int

	// Proof, nil by default, is told every axiom, lemma and Unsat
	// answer: the one place a sink attaches, before the first AddClause.
	Proof ProofSink

	nVars int
	okay  bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, okay: true}
	s.order = &varHeap{s: s}
	return s
}

// varFloor is the variables the per-variable arrays first make room
// for: a session of alive's solves p50 34 and p90 129 variables, so
// most grow once or not at all.
const varFloor = 64

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.nVars
	if v == cap(s.assign) {
		s.growVars(max(2*v, varFloor))
	}
	s.nVars++
	s.watches = append(s.watches, s.newWatchList(), s.newWatchList())
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, noClause)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.phase = append(s.phase, false)
	s.order.push(v)
	return v
}

// growVars makes room in every per-variable array, the heap's too, for
// n variables at once, rather than letting each grow by its own chain of
// appends.
func (s *Solver) growVars(n int) {
	s.watches = grown(s.watches, 2*n)
	s.assign = grown(s.assign, n)
	s.level = grown(s.level, n)
	s.reason = grown(s.reason, n)
	s.activity = grown(s.activity, n)
	s.seen = grown(s.seen, n)
	s.phase = grown(s.phase, n)
	s.order.heap = grown(s.order.heap, n)
	s.order.index = grown(s.order.index, n)
}

// grown is s copied into a new array of capacity n: one allocation,
// where slices.Grow makes the zeroed tail separately under -race.
func grown[T any](s []T, n int) []T {
	t := make([]T, len(s), n)
	copy(t, s)
	return t
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// Conflicts returns the number of conflicts encountered so far.
func (s *Solver) Conflicts() int { return s.conflicts }

func (s *Solver) valueLit(l Lit) lbool {
	return s.assign[l>>1] ^ lbool(l&1)
}

// AddClause adds a clause (a disjunction of literals). Returns false
// if the formula is already unsatisfiable. Clauses may be added
// between Solve calls: any leftover search state (including the model
// of a prior Sat call) is undone first so the clause is simplified
// against level-0 truths only and its watches are installed on a
// clean trail. Callers must therefore read the model before adding
// more clauses.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	if s.Proof != nil {
		s.Proof.Axiom(append([]Lit(nil), lits...))
	}
	s.backtrackTo(0)
	// Simplify: dedupe, drop false literals, detect tautology. Clauses
	// are short (Tseitin gates are 2-3 literals) and AddClause runs on
	// every session query, so an insertion sort beats sort.Slice's
	// reflection overhead.
	for i := 1; i < len(lits); i++ {
		l := lits[i]
		j := i - 1
		for j >= 0 && lits[j] > l {
			lits[j+1] = lits[j]
			j--
		}
		lits[j+1] = l
	}
	out := lits[:0]
	var prev Lit = -1
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // permanently false
			}
		}
		out = append(out, l)
		prev = l
	}
	lits = out
	switch len(lits) {
	case 0:
		s.okay = false
		return false
	case 1:
		if !s.enqueue(lits[0], noClause) || s.propagate() != noClause {
			s.okay = false
			return false
		}
		return true
	}
	c := s.alloc(lits, false)
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c cref) {
	l := s.lits(c)
	s.watches[l[0].Not()] = append(s.watches[l[0].Not()], watcher{c, l[1]})
	s.watches[l[1].Not()] = append(s.watches[l[1].Not()], watcher{c, l[0]})
}

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = lbool(l & 1) // sign bit is the lFalse bit
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		// Compact the watch list in place: kept watches slide left over
		// moved ones, so visiting a list allocates nothing.
		ws := s.watches[p]
		j := 0
		for wi := 0; wi < len(ws); wi++ {
			// Blocker check first: if some other literal of the clause is
			// already true the clause is satisfied and nothing else needs
			// to be read.
			if s.valueLit(ws[wi].blocker) == lTrue {
				ws[j] = ws[wi]
				j++
				continue
			}
			c := ws[wi].c
			lits := s.lits(c)
			// Ensure the false literal is lits[1]; analyze expects a
			// reason clause's implied literal at lits[0].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// A binary clause's blocker is its only other literal, and it
			// is not true: unit or conflicting, with nothing to search.
			if len(lits) > 2 {
				// If the first watch is true, the clause is satisfied;
				// make it the blocker for next time.
				if s.valueLit(lits[0]) == lTrue {
					ws[j] = watcher{c, lits[0]}
					j++
					continue
				}
				// Find a new literal to watch. The new watch lits[1] is
				// non-false while p is true, so its list is never ws
				// itself and the append cannot alias the slice being
				// compacted.
				found := false
				for k := 2; k < len(lits); k++ {
					if s.valueLit(lits[k]) != lFalse {
						lits[1], lits[k] = lits[k], lits[1]
						s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
						found = true
						break
					}
				}
				if found {
					continue
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, lits[0]}
			j++
			if !s.enqueue(lits[0], c) {
				// Conflict: keep the unvisited remainder and return.
				for wi++; wi < len(ws); wi++ {
					ws[j] = ws[wi]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
		}
		s.watches[p] = ws[:j]
	}
	return noClause
}

// analyze derives the first-UIP learnt clause of a conflict. The
// result is the solver's scratch buffer: valid until the next call.
func (s *Solver) analyze(conf cref) (learnt []Lit, backLevel int) {
	counter := 0
	var p Lit = -1
	learnt = append(s.learnt[:0], 0) // placeholder for the asserting literal
	idx := len(s.trail) - 1

	c := conf
	for {
		// Clauses involved in conflict analysis are the useful ones:
		// bump them so reduceDB keeps the most-used half rather than
		// the most recently created.
		if s.isLearnt(c) {
			s.bumpClause(c)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range s.lits(c)[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to look at.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learnt[0] = p.Not()

	// Minimize the learnt clause by local self-subsumption: a literal
	// whose reason's antecedents are all already in the clause (seen)
	// or fixed at level 0 is implied by the rest and can be dropped.
	// seen stays set for dropped literals during the scan — removals
	// chain soundly because implication order bottoms out at kept
	// literals (induction on trail position).
	s.minBuf = append(s.minBuf[:0], learnt...)
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		c := s.reason[v]
		if c == noClause {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.lits(c)[1:] {
			if !s.seen[q.Var()] && s.level[q.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Compute backtrack level (second-highest level in the clause).
	backLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLevel = s.level[learnt[1].Var()]
	}
	// Clear seen over the pre-minimization clause: dropped literals'
	// vars are still marked.
	for _, l := range s.minBuf {
		s.seen[l.Var()] = false
	}
	s.learnt = learnt[:0]
	return learnt, backLevel
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = noClause
		s.level[v] = -1
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// bumpClause raises a learnt clause's activity, rescaling all learnt
// activities (and claInc itself) when they grow large so a long-lived
// incremental session never overflows to +Inf.
func (s *Solver) bumpClause(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setAct(l, s.act(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// reduceDB removes half of the learnt clauses with lowest activity.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.act(s.learnts[i]) > s.act(s.learnts[j]) })
	keep := len(s.learnts) / 2
	for _, c := range s.learnts[keep:] {
		if s.isReason(c) || len(s.lits(c)) <= 2 {
			s.learnts = append(s.learnts[:keep], c)
			keep++
			continue
		}
		s.free(c)
	}
	s.learnts = s.learnts[:keep]
	s.compact()
}

func (s *Solver) isReason(c cref) bool {
	v := s.lits(c)[0].Var()
	return s.reason[v] == c && s.assign[v] != lUndef
}

func (s *Solver) unwatch(c cref) {
	lits := s.lits(c)
	for _, l := range []Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[l]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Simplify removes clauses that are satisfied at level 0 from the
// database and the watch lists. In an incremental session every
// retired query leaves behind a permanently satisfied guard clause
// (and learnt clauses subsumed by the retirement unit); dropping them
// keeps propagation proportional to the live formula instead of the
// whole session history.
func (s *Solver) Simplify() {
	if !s.okay {
		return
	}
	s.backtrackTo(0)
	if s.propagate() != noClause {
		s.okay = false
		return
	}
	s.clauses = s.removeSatisfied(s.clauses)
	s.learnts = s.removeSatisfied(s.learnts)
	s.compact()
}

func (s *Solver) removeSatisfied(cs []cref) []cref {
	out := cs[:0]
	for _, c := range cs {
		satisfied := false
		for _, l := range s.lits(c) {
			if s.valueLit(l) == lTrue && s.level[l.Var()] == 0 {
				satisfied = true
				break
			}
		}
		if satisfied && !s.isReason(c) {
			s.free(c)
			continue
		}
		out = append(out, c)
	}
	return out
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int) int {
	k := 1
	for (1<<uint(k))-1 < i {
		k++
	}
	if (1<<uint(k))-1 == i {
		return 1 << uint(k-1)
	}
	return luby(i - ((1 << uint(k-1)) - 1))
}

// Solve runs the CDCL loop, optionally under assumption literals that
// hold for this call only. It returns Sat with a complete model
// retrievable via Value, Unsat, or an error if the conflict budget is
// exhausted (the budget spans Solve calls: conflicts accumulate and
// are checked against Budget on every call).
//
// Solve is incremental: it first backtracks to level 0, so it may be
// called repeatedly with different assumptions and with clauses added
// between calls; learnt clauses, activities, and saved phases carry
// over. An Unsat answer under assumptions does not make the solver
// permanently unsat — only a level-0 conflict does. After Sat the
// model must be read before the next AddClause or Solve, either of
// which resets the trail.
func (s *Solver) Solve(assumptions ...Lit) (Status, error) {
	if !s.okay {
		return s.unsat(assumptions)
	}
	// Re-entry from a prior call: drop its decisions and assumptions.
	s.backtrackTo(0)
	if s.propagate() != noClause {
		s.okay = false
		return s.unsat(assumptions)
	}
	restartN := 1
	conflictsAtRestart := 0
	restartLimit := 64 * luby(restartN)
	maxLearnts := len(s.clauses)/2 + 500

	for {
		conf := s.propagate()
		if conf != noClause {
			s.conflicts++
			conflictsAtRestart++
			// Level first: a level-0 conflict is Unsat whatever the
			// budget, and giving up on one would leave the falsified
			// clause behind qhead for the next call to miss.
			if s.decisionLevel() == 0 {
				s.okay = false
				return s.unsat(assumptions)
			}
			if s.Budget > 0 && s.conflicts > s.Budget {
				return Unknown, errBudget
			}
			learnt, backLevel := s.analyze(conf)
			if s.Proof != nil {
				s.Proof.Lemma(append([]Lit(nil), learnt...))
			}
			s.backtrackTo(backLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], noClause)
			} else {
				c := s.alloc(learnt, true)
				s.learnts = append(s.learnts, c)
				s.watch(c)
				s.bumpClause(c)
				s.enqueue(learnt[0], c)
			}
			s.decayActivities()
			continue
		}
		if conflictsAtRestart >= restartLimit {
			restartN++
			restartLimit = 64 * luby(restartN)
			conflictsAtRestart = 0
			s.backtrackTo(0)
			continue
		}
		if len(s.learnts) > maxLearnts {
			s.reduceDB()
			maxLearnts += 200
		}
		// Assert pending assumptions, one decision level each, before
		// any free decision. Restarts and conflict backjumps can undo
		// them; they are re-asserted here on the way back down.
		if lvl := s.decisionLevel(); lvl < len(assumptions) {
			p := assumptions[lvl]
			switch s.valueLit(p) {
			case lTrue:
				// Already implied: open a dummy level so decision level
				// k still corresponds to assumption k.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// The clause database (with earlier assumptions) forces
				// this assumption false: unsat under assumptions, but
				// the solver itself stays usable.
				s.backtrackTo(0)
				return s.unsat(assumptions)
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(p, noClause)
			continue
		}
		v := s.pickBranchVar()
		if v == -1 {
			return Sat, nil // complete assignment
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		// Phase saving: repeat the variable's last polarity so restarts
		// and successive assumption solves re-explore saved
		// assignments. Fresh variables start at false, which biases
		// toward sparse counterexamples.
		s.enqueue(MkLit(v, !s.phase[v]), noClause)
	}
}

// unsat reports an Unsat answer to the proof sink on its way out.
func (s *Solver) unsat(assumptions []Lit) (Status, error) {
	if s.Proof != nil {
		s.Proof.Unsat(append([]Lit(nil), assumptions...))
	}
	return Unsat, nil
}

// Value returns the model value of variable v after Sat.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap over variable activity. The index side table
// is a dense slice (variables are small ints and every variable passes
// through the heap): backtracking pushes the whole trail back, so map
// overhead here dominated long incremental sessions.
type varHeap struct {
	s     *Solver
	heap  []int
	index []int // variable -> heap position, -1 when absent
}

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[h.heap[a]] > h.s.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.index[h.heap[a]] = a
	h.index[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
}

func (h *varHeap) push(v int) {
	for len(h.index) <= v {
		h.index = append(h.index, -1)
	}
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.index[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.index) && h.index[v] >= 0 {
		h.up(h.index[v])
	}
}
