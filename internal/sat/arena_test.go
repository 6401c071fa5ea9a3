package sat

import (
	"math/rand"
	"testing"
)

// arenaLive sums the footprint of every clause the lists still hold —
// an accounting independent of Solver.wasted.
func arenaLive(s *Solver) int {
	live := 0
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			live += words(s.arena[c])
		}
	}
	return live
}

// checkArena: the dead-word count is exact, and after a reduceDB or a
// Simplify (the two places that compact) dead words never outweigh
// live ones, so len(arena) stays within twice its live words.
func checkArena(t *testing.T, s *Solver, when string) {
	t.Helper()
	live := arenaLive(s)
	if got := len(s.arena) - s.wasted; got != live {
		t.Fatalf("%s: arena holds %d words, %d counted dead, but the clause lists account for %d live", when, len(s.arena), s.wasted, live)
	}
	if len(s.arena) > 2*live {
		t.Fatalf("%s: arena %d words for %d live: compaction did not run", when, len(s.arena), live)
	}
}

// TestArenaStaysCompactOverLongSession drives one solver the way a
// long bv.Session does — a guarded query, a budgeted Solve, retire the
// guard, Simplify — for 240 cycles with a reduceDB every tenth, over a
// permanent core so lemmas pile up. The arena must stay within twice
// its live words throughout, and a closing query must be answered
// exactly as by a fresh solver fed every clause the old one ever got.
func TestArenaStaysCompactOverLongSession(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s := New()
	var fed [][]Lit // every AddClause, in order
	add := func(lits ...Lit) {
		fed = append(fed, append([]Lit(nil), lits...))
		s.AddClause(lits...)
	}
	// A permanent, satisfiable core (random 3-SAT well under the 4.26
	// threshold), so lemmas over it alone outlive every query.
	const core = 60
	for v := 0; v < core; v++ {
		s.NewVar()
	}
	random3 := func() []Lit {
		return []Lit{MkLit(rng.Intn(core), rng.Intn(2) == 0), MkLit(rng.Intn(core), rng.Intn(2) == 0), MkLit(rng.Intn(core), rng.Intn(2) == 0)}
	}
	for i := 0; i < 3*core; i++ {
		add(random3()...)
	}
	// guarded adds act → n more random clauses, pushing the query to
	// the threshold: hard enough to learn from, Sat and Unsat both occur.
	guarded := func(n int) Lit {
		act := MkLit(s.NewVar(), false)
		for i := 0; i < n; i++ {
			add(append(random3(), act.Not())...)
		}
		return act
	}
	reductions, compactions, statuses := 0, 0, map[Status]int{}
	for cycle := 0; cycle < 240; cycle++ {
		act := guarded(60 + rng.Intn(40))
		s.Budget = s.Conflicts() + 400
		st, _ := s.Solve(act)
		statuses[st]++
		before := len(s.arena)
		if cycle%10 == 9 {
			s.backtrackTo(0)
			s.reduceDB()
			reductions++
			checkArena(t, s, "after reduceDB")
		}
		add(act.Not())
		s.Simplify()
		checkArena(t, s, "after Simplify")
		if len(s.arena) < before {
			compactions++
		}
	}
	t.Logf("240 cycles: %d reduceDB rounds, %d compactions, answers %v, %d conflicts, arena %d words for %d clauses + %d learnts",
		reductions, compactions, statuses, s.Conflicts(), len(s.arena), len(s.clauses), len(s.learnts))
	if reductions < 20 || compactions < 20 || statuses[Sat] == 0 || statuses[Unsat] == 0 {
		t.Fatalf("the session did not exercise what it is meant to: %d reductions, %d compactions, %v", reductions, compactions, statuses)
	}

	for closing := 0; closing < 6; closing++ {
		act := guarded(50 + 10*closing)
		fresh := New()
		for fresh.NumVars() < s.NumVars() {
			fresh.NewVar()
		}
		for _, cl := range fed {
			fresh.AddClause(append([]Lit(nil), cl...)...)
		}
		s.Budget = 0
		got, err := s.Solve(act)
		want, ferr := fresh.Solve(act)
		if err != nil || ferr != nil || got != want {
			t.Fatalf("closing query %d: long-lived solver %v (%v), fresh solver %v (%v)", closing, got, err, want, ferr)
		}
		if got == Sat {
			for i, cl := range fed {
				ok := false
				for _, l := range cl {
					ok = ok || s.Value(l.Var()) != l.Neg()
				}
				if !ok {
					t.Fatalf("closing query %d: model violates clause %d %v", closing, i, cl)
				}
			}
		}
		add(act.Not())
		s.Simplify()
		checkArena(t, s, "after closing Simplify")
	}
}

// TestCompactRepointsEverything: after a forced compaction every
// clause, watcher and reason still names the same literals.
func TestCompactRepointsEverything(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6)
	s.Budget = 300
	s.Solve() // leaves a trail with reasons, and learnt clauses
	type snap struct {
		lits   []Lit
		learnt bool
		act    float64
	}
	take := func(c cref) snap {
		sn := snap{lits: append([]Lit(nil), s.lits(c)...), learnt: s.isLearnt(c)}
		if sn.learnt {
			sn.act = s.act(c)
		}
		return sn
	}
	var before []snap
	visit := func(f func(c cref)) {
		for _, c := range s.clauses {
			f(c)
		}
		for _, c := range s.learnts {
			f(c)
		}
		for _, c := range s.reason {
			if c != noClause {
				f(c)
			}
		}
		for _, ws := range s.watches {
			for _, w := range ws {
				f(w.c)
			}
		}
	}
	if len(s.learnts) < 50 {
		t.Fatalf("only %d learnt clauses", len(s.learnts))
	}
	// Drop every other learnt clause that is not locked, then compact.
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if i%2 == 0 && !s.isReason(c) {
			s.free(c)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	visit(func(c cref) { before = append(before, take(c)) })
	s.wasted = len(s.arena) // force it
	oldLen := len(s.arena)
	s.compact()
	if s.wasted != 0 || len(s.arena) >= oldLen || len(s.arena) != arenaLive(s) {
		t.Fatalf("compact left %d words (%d before, %d live, %d wasted)", len(s.arena), oldLen, arenaLive(s), s.wasted)
	}
	i := 0
	visit(func(c cref) {
		got, want := take(c), before[i]
		if len(got.lits) != len(want.lits) || got.learnt != want.learnt || got.act != want.act {
			t.Fatalf("reference %d: %+v, was %+v", i, got, want)
		}
		for k := range got.lits {
			if got.lits[k] != want.lits[k] {
				t.Fatalf("reference %d: %+v, was %+v", i, got, want)
			}
		}
		i++
	})
	s.Budget = 0
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Fatalf("after compaction php(7,6) = %v, %v", st, err)
	}
}

// TestWatchListOutgrowsItsSlabShare: a list carved from the slab has
// its capacity capped at slabPerLit, so the append that outgrows it
// moves the list elsewhere and leaves the neighbouring share alone.
func TestWatchListOutgrowsItsSlabShare(t *testing.T) {
	s := New()
	s.NewVar()
	s.NewVar()
	for l, ws := range s.watches {
		if len(ws) != 0 || cap(ws) != slabPerLit {
			t.Fatalf("literal %d starts with len %d cap %d, want 0 and %d", l, len(ws), cap(ws), slabPerLit)
		}
	}
	// Literal 1's share follows literal 0's in the slab.
	for i := 0; i < slabPerLit; i++ {
		s.watches[0] = append(s.watches[0], watcher{cref(i), 0})
		s.watches[1] = append(s.watches[1], watcher{cref(100 + i), 1})
	}
	if cap(s.watches[0]) != slabPerLit {
		t.Fatalf("filling the share changed its capacity to %d", cap(s.watches[0]))
	}
	first := &s.watches[0][0]
	s.watches[0] = append(s.watches[0], watcher{cref(99), 0})
	if &s.watches[0][0] == first {
		t.Fatal("append past the share did not reallocate")
	}
	for i, w := range s.watches[1] {
		if w != (watcher{cref(100 + i), 1}) {
			t.Fatalf("neighbour's entry %d overwritten: %+v", i, w)
		}
	}
	if len(s.watches[0]) != slabPerLit+1 || s.watches[0][slabPerLit].c != 99 {
		t.Fatalf("outgrown list lost entries: %+v", s.watches[0])
	}
}
