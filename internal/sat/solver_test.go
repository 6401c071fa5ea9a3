package sat

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	st, err := s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("status = %v, err = %v", st, err)
	}
	if s.Value(a) || !s.Value(b) {
		t.Errorf("model a=%v b=%v, want a=false b=true", s.Value(a), s.Value(b))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true))
	st, err := s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("status = %v, err = %v, want Unsat", st, err)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Error("AddClause() with no literals should return false")
	}
	st, _ := s.Solve()
	if st != Unsat {
		t.Errorf("status = %v, want Unsat", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Error("tautology should be accepted")
	}
	st, _ := s.Solve()
	if st != Sat {
		t.Errorf("status = %v, want Sat", st)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes. Unsat.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	// Each pigeon in some hole.
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		st, err := s.Solve()
		if err != nil {
			t.Fatalf("php(%d): %v", n, err)
		}
		if st != Unsat {
			t.Errorf("php(%d+1,%d) = %v, want Unsat", n, n, st)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	st, err := s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("php(5,5) = %v, err=%v, want Sat", st, err)
	}
}

// bruteForce checks satisfiability of a CNF over nVars by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range cnf {
			clauseSat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce cross-checks the solver on many
// random small instances, including the model it returns.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(8)
		nClauses := 5 + rng.Intn(40)
		var cnf [][]Lit
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for c := 0; c < nClauses; c++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for i := range cl {
				cl[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		want := bruteForce(nVars, cnf)
		st, err := s.Solve()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if (st == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v", iter, st, want)
		}
		if st == Sat {
			// Verify the model satisfies every clause.
			for ci, cl := range cnf {
				ok := false
				for _, l := range cl {
					val := s.Value(l.Var())
					if l.Neg() {
						val = !val
					}
					if val {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %d", iter, ci)
				}
			}
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.Budget = 5
	st, err := s.Solve()
	if err != errBudget {
		t.Fatalf("status=%v err=%v, want errBudget", st, err)
	}
}

func TestSolveUnderAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	st, err := s.Solve(MkLit(a, true), MkLit(b, true))
	if err != nil || st != Unsat {
		t.Fatalf("solve(¬a,¬b) = %v, %v, want Unsat", st, err)
	}
	// Unsat under assumptions must not poison the solver.
	st, err = s.Solve(MkLit(a, true))
	if err != nil || st != Sat {
		t.Fatalf("solve(¬a) = %v, %v, want Sat", st, err)
	}
	if s.Value(a) || !s.Value(b) {
		t.Errorf("model a=%v b=%v, want a=false b=true", s.Value(a), s.Value(b))
	}
	st, err = s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("solve() = %v, %v, want Sat", st, err)
	}
}

// TestActivationLiteralProtocol exercises the incremental pattern the
// bv.Session uses: per-query activation literals solved under
// assumption, then retired with a unit clause.
func TestActivationLiteralProtocol(t *testing.T) {
	s := New()
	x := s.NewVar()
	// Query 1: act1 → x, solved under act1.
	act1 := s.NewVar()
	s.AddClause(MkLit(act1, true), MkLit(x, false))
	st, err := s.Solve(MkLit(act1, false))
	if err != nil || st != Sat {
		t.Fatalf("query1 = %v, %v, want Sat", st, err)
	}
	if !s.Value(x) {
		t.Fatal("query1 model must satisfy x")
	}
	s.AddClause(MkLit(act1, true)) // retire act1
	// Query 2: act2 → ¬x, independent of the retired query 1.
	act2 := s.NewVar()
	s.AddClause(MkLit(act2, true), MkLit(x, true))
	st, err = s.Solve(MkLit(act2, false))
	if err != nil || st != Sat {
		t.Fatalf("query2 = %v, %v, want Sat", st, err)
	}
	if s.Value(x) {
		t.Fatal("query2 model must satisfy ¬x")
	}
	// Query 3: act3 → (x ∧ ¬x): unsat under assumption only.
	act3 := s.NewVar()
	s.AddClause(MkLit(act3, true), MkLit(x, false))
	s.AddClause(MkLit(act3, true), MkLit(x, true))
	st, err = s.Solve(MkLit(act3, false))
	if err != nil || st != Unsat {
		t.Fatalf("query3 = %v, %v, want Unsat", st, err)
	}
	s.AddClause(MkLit(act3, true))
	// The solver is still globally satisfiable afterwards.
	st, err = s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("final solve = %v, %v, want Sat", st, err)
	}
}

// TestAddClauseAfterSolve is the incremental-hardening regression: a
// clause added after a prior Sat call used to be compared against the
// live model and silently dropped when some literal happened to be
// true at a non-zero decision level.
func TestAddClauseAfterSolve(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	x := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	st, err := s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("first solve = %v, %v, want Sat", st, err)
	}
	// b is true in the model at level > 0; (b ∨ x) must still be
	// recorded as a real clause, not dropped as "satisfied".
	s.AddClause(MkLit(b, false), MkLit(x, false))
	s.AddClause(MkLit(b, true))
	s.AddClause(MkLit(x, true))
	st, err = s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("after adds = %v, %v, want Unsat ((b∨x) ∧ ¬b ∧ ¬x)", st, err)
	}
}

// TestBudgetSpansSolveCalls pins the incremental budget contract:
// conflicts accumulate across calls and are charged against Budget on
// every call, so a session can top the budget up per query.
func TestBudgetSpansSolveCalls(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6)
	s.Budget = 5
	if _, err := s.Solve(); err != errBudget {
		t.Fatalf("first call err = %v, want errBudget", err)
	}
	spent := s.Conflicts()
	if spent <= 5 {
		t.Fatalf("conflicts = %d, want > 5", spent)
	}
	// Without raising the budget, the next call fails immediately.
	if _, err := s.Solve(); err != errBudget {
		t.Fatalf("second call err = %v, want errBudget", err)
	}
	// Topping up gives the next call fresh headroom.
	s.Budget = s.Conflicts() + 100000
	st, err := s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("topped-up call = %v, %v, want Unsat", st, err)
	}
}

// TestBudgetAtLevelZeroConflict: a conflict at decision level 0 refutes
// the formula whatever the budget says. Solve used to test the budget
// first: the second conflict here (the learnt unit a propagates into
// ¬a∨c and ¬a∨¬c at level 0) returned errBudget with the falsified
// clause already behind the propagation queue, and the next Solve
// answered Sat with a = c = true.
func TestBudgetAtLevelZeroConflict(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(c, false))
	s.AddClause(MkLit(a, true), MkLit(c, true))
	s.Budget = 1
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Errorf("budget 1: %v, %v, want Unsat: the second conflict is at level 0", st, err)
	}
	if s.Conflicts() != 2 {
		t.Errorf("conflicts = %d, want 2 (the reproducer needs the budget to run out on the level-0 conflict)", s.Conflicts())
	}
	s.Budget = 0
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Errorf("next call: %v, %v (a=%v c=%v), want Unsat", st, err, s.Value(a), s.Value(c))
	}
}

// TestPhaseSaving: an unconstrained variable keeps the polarity it was
// last assigned, so successive solves re-explore saved assignments.
func TestPhaseSaving(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.NewVar()                          // keep the instance non-trivial
	st, err := s.Solve(MkLit(a, false)) // assume a
	if err != nil || st != Sat || !s.Value(a) {
		t.Fatalf("solve(a) = %v, %v, a=%v", st, err, s.Value(a))
	}
	st, err = s.Solve() // a unconstrained: decision repeats saved phase
	if err != nil || st != Sat {
		t.Fatalf("solve() = %v, %v", st, err)
	}
	if !s.Value(a) {
		t.Error("phase saving lost: a decided false after being assigned true")
	}
}

// TestClauseActivityRescale: bumping near the cap rescales all learnt
// activities and claInc instead of growing toward +Inf, and the
// float64 survives its two arena words bit for bit.
func TestClauseActivityRescale(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		s.NewVar()
	}
	c1 := s.alloc([]Lit{MkLit(0, false), MkLit(1, false), MkLit(2, false)}, true)
	c2 := s.alloc([]Lit{MkLit(0, true), MkLit(1, true), MkLit(2, true)}, true)
	s.learnts = []cref{c1, c2}
	for _, a := range []float64{0, 1, -0.5, 1e-300, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		s.setAct(c2, a)
		if got := s.act(c2); math.Float64bits(got) != math.Float64bits(a) {
			t.Fatalf("activity %g read back as %g", a, got)
		}
	}
	if !s.isLearnt(c1) || len(s.lits(c1)) != 3 || s.lits(c2)[0] != MkLit(0, true) {
		t.Fatalf("activity words overlap the header or the literals: %v %v", s.lits(c1), s.lits(c2))
	}
	s.setAct(c1, 0.5e20)
	s.setAct(c2, 1e10)
	s.claInc = 0.6e20
	s.bumpClause(c1)
	if s.act(c1) > 1e20 || s.act(c2) > 1e20 {
		t.Fatalf("activities not rescaled: c1=%g c2=%g", s.act(c1), s.act(c2))
	}
	if s.claInc >= 0.6e20 {
		t.Fatalf("claInc not rescaled: %g", s.claInc)
	}
	if s.act(c1) <= s.act(c2) {
		t.Fatalf("relative order lost: c1=%g c2=%g", s.act(c1), s.act(c2))
	}
}

// TestAssumptionsAgainstBruteForce cross-checks assumption solving on
// random instances: Solve(assumps) must equal solving the instance
// with the assumptions added as unit clauses.
func TestAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nVars := 4 + rng.Intn(6)
		nClauses := 5 + rng.Intn(30)
		var cnf [][]Lit
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for c := 0; c < nClauses; c++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for i := range cl {
				cl[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			cnf = append(cnf, cl)
			if !s.AddClause(cl...) {
				break
			}
		}
		nAssump := 1 + rng.Intn(3)
		assumps := make([]Lit, nAssump)
		for i := range assumps {
			assumps[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		full := append([][]Lit{}, cnf...)
		for _, a := range assumps {
			full = append(full, []Lit{a})
		}
		want := bruteForce(nVars, full)
		st, err := s.Solve(assumps...)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if (st == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v (assumps=%v)", iter, st, want, assumps)
		}
		if st == Sat {
			for _, a := range assumps {
				val := s.Value(a.Var())
				if a.Neg() {
					val = !val
				}
				if !val {
					t.Fatalf("iter %d: model violates assumption %v", iter, a)
				}
			}
			for ci, cl := range cnf {
				ok := false
				for _, l := range cl {
					val := s.Value(l.Var())
					if l.Neg() {
						val = !val
					}
					if val {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %d", iter, ci)
				}
			}
		}
		// The solver must stay reusable: an unconstrained re-solve of a
		// formula that was satisfiable without assumptions stays Sat.
		if bruteForce(nVars, cnf) {
			st, err := s.Solve()
			if err != nil || st != Sat {
				t.Fatalf("iter %d: re-solve = %v, %v, want Sat", iter, st, err)
			}
		}
	}
}

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestChainImplications(t *testing.T) {
	// x0 -> x1 -> ... -> x99, with x0 forced true and x99 forced false: unsat.
	s := New()
	const n = 100
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	s.AddClause(MkLit(vars[0], false))
	s.AddClause(MkLit(vars[n-1], true))
	st, err := s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("chain: %v, %v, want Unsat", st, err)
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(7, true)
	if l.Var() != 7 || !l.Neg() {
		t.Errorf("MkLit(7,true): var=%d neg=%v", l.Var(), l.Neg())
	}
	if l.Not().Neg() || l.Not().Var() != 7 {
		t.Error("Not() wrong")
	}
	if l.Not().Not() != l {
		t.Error("double negation not identity")
	}
}

func BenchmarkPigeonhole8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		st, err := s.Solve()
		if err != nil || st != Unsat {
			b.Fatalf("%v %v", st, err)
		}
	}
}
