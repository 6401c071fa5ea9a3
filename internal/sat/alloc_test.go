package sat_test

import (
	"testing"

	"veriopt/internal/bv"
	"veriopt/internal/ruptest"
	"veriopt/internal/sat"
)

// blastedCNF bit-blasts ¬(x·(y+1) = x·y + x) at width w with the real
// blaster and returns the clauses it fed the solver, in order, with the
// number of variables it made.
func blastedCNF(t *testing.T, w int) (cnf [][]sat.Lit, nVars int) {
	t.Helper()
	var tr ruptest.Trace
	b := bv.NewBuilder()
	x, y := b.Var(w, "x"), b.Var(w, "y")
	xy := b.Bin(bv.OpMul, x, y)
	cond := b.Not(b.Eq(b.Bin(bv.OpMul, x, b.Bin(bv.OpAdd, y, b.Const(w, 1))), b.Bin(bv.OpAdd, xy, x)))
	bl := bv.NewBlaster(&tr)
	bl.AssertTrue(cond)
	for _, st := range tr {
		cnf = append(cnf, st.Lits)
	}
	return cnf, bl.S.NumVars()
}

// andLadder is the Tseitin encoding of o_i = a_i ∧ o_(i-1) for n gates:
// 3n clauses in which no literal is watched by more clauses than its
// share of the watch slab holds.
func andLadder(n int) (cnf [][]sat.Lit, nVars int) {
	prev := sat.MkLit(0, false)
	for i := 0; i < n; i++ {
		a, o := sat.MkLit(1+2*i, false), sat.MkLit(2+2*i, false)
		cnf = append(cnf, []sat.Lit{o.Not(), a}, []sat.Lit{o.Not(), prev}, []sat.Lit{o, a.Not(), prev.Not()})
		prev = o
	}
	return cnf, 1 + 2*n
}

// TestClauseDatabaseAllocations: what building a clause database costs
// in mallocs. With a heap object and a literal slice per clause and a
// grown-by-append watch list per literal it was 3.7 per clause on the
// blasted formula below (42 864 for the larger). Now a clause costs
// none of its own: the count is set by how often the arena, the watch
// slab and the per-variable arrays grow — the same few dozen for every
// 8x in size — plus one growth per watch list that outgrows its slab
// share, which a real blasted formula has (a multiplier's low bits fan
// out widely) and a gate ladder does not. The per-variable arrays grow
// together, doubling from 64 variables: the ladders read 80 / 123 / 170
// and the blasted formulas 256 and 1 602 (133 / 204 / 293, 300 and
// 1 669 while each of them grew by its own chain of appends).
func TestClauseDatabaseAllocations(t *testing.T) {
	mallocs := func(cnf [][]sat.Lit, nVars int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := sat.New()
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
		})
	}
	var ladder [3]float64
	for i, n := range []int{500, 4000, 32000} {
		ladder[i] = mallocs(andLadder(n))
	}
	t.Logf("and-ladder, 1500 / 12000 / 96000 clauses: %.0f / %.0f / %.0f mallocs", ladder[0], ladder[1], ladder[2])
	for i := 1; i < 3; i++ {
		if step := ladder[i] - ladder[i-1]; step > 150 {
			t.Errorf("8x the clauses cost %.0f more mallocs (%.0f -> %.0f): that is growth with the clause count, not a few doublings", step, ladder[i-1], ladder[i])
		}
	}

	small, smallVars := blastedCNF(t, 8)
	big, bigVars := blastedCNF(t, 24)
	if len(big) < 8*len(small) {
		t.Fatalf("%d vs %d clauses: want the sizes at least 8x apart", len(small), len(big))
	}
	a, b := mallocs(small, smallVars), mallocs(big, bigVars)
	t.Logf("blasted x(y+1) != xy+x: %d clauses over %d variables, %.0f mallocs; %d clauses over %d variables, %.0f mallocs",
		len(small), smallVars, a, len(big), bigVars, b)
	if perClause := (b - a) / float64(len(big)-len(small)); perClause > 0.2 {
		t.Errorf("%.2f mallocs per added clause: watch lists are outgrowing the slab far more often than one in five clauses", perClause)
	}
}
