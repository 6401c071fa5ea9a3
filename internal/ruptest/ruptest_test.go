package ruptest

import (
	"os"
	"regexp"
	"testing"

	"veriopt/internal/sat"
)

func pos(v int) sat.Lit { return sat.MkLit(v, false) }
func neg(v int) sat.Lit { return sat.MkLit(v, true) }

// handTrace refutes (a∨b)(a∨¬b)(¬a∨c)(¬a∨¬c∨d)(¬d∨¬c) through the
// lemma (a): no axiom is unit, so without it nothing propagates.
func handTrace() Trace {
	const a, b, c, d = 0, 1, 2, 3
	var tr Trace
	tr.Axiom([]sat.Lit{pos(a), pos(b)})
	tr.Axiom([]sat.Lit{pos(a), neg(b)})
	tr.Axiom([]sat.Lit{neg(a), pos(c)})
	tr.Axiom([]sat.Lit{neg(a), neg(c), pos(d)})
	tr.Axiom([]sat.Lit{neg(d), neg(c)})
	tr.Lemma([]sat.Lit{pos(a)})
	tr.Unsat(nil)
	return tr
}

func TestAcceptsHandTrace(t *testing.T) {
	if err := check(handTrace()); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsUnsatWithoutItsLemma(t *testing.T) {
	tr := handTrace()
	tr = append(tr[:5:5], tr[6:]...) // drop the lemma (a)
	if err := check(tr); err == nil {
		t.Fatal("an Unsat whose only lemma was dropped was accepted: no axiom is unit")
	}
}

func TestRejectsSatisfiableUnsat(t *testing.T) {
	var tr Trace
	tr.Axiom([]sat.Lit{pos(0), pos(1)})
	tr.Unsat([]sat.Lit{neg(0)})
	if err := check(tr); err == nil {
		t.Fatal("(a∨b) under ¬a is satisfiable, yet Unsat was accepted")
	}
	tr = nil
	tr.Axiom([]sat.Lit{pos(0), pos(1)})
	tr.Unsat([]sat.Lit{neg(0), neg(1)})
	if err := check(tr); err != nil {
		t.Fatalf("(a∨b) under ¬a,¬b: %v", err)
	}
}

func TestRejectsNonRUPLemma(t *testing.T) {
	var tr Trace
	tr.Axiom([]sat.Lit{pos(0), pos(1)})
	tr.Lemma([]sat.Lit{pos(0)}) // not implied: b alone satisfies the axiom
	if err := check(tr); err == nil {
		t.Fatal("a lemma the axioms do not imply was accepted")
	}
}

// solverTrace records a real refutation: the pigeonhole principle is
// not refutable by unit propagation alone, so the Unsat rests on the
// lemmas.
func solverTrace(t *testing.T) Trace {
	t.Helper()
	var tr Trace
	s := sat.New()
	s.Proof = &tr
	const pigeons, holes = 6, 5
	v := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]sat.Lit, holes)
		for h := range cl {
			cl[h] = pos(v(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				s.AddClause(neg(v(p, h)), neg(v(q, h)))
			}
		}
	}
	if st, err := s.Solve(); err != nil || st != sat.Unsat {
		t.Fatalf("php(6,5) = %v, %v", st, err)
	}
	return tr
}

func lemmaSteps(tr Trace) []int {
	var at []int
	for i, st := range tr {
		if st.kind == kindLemma {
			at = append(at, i)
		}
	}
	return at
}

// TestRejectsCorruptedSolverTrace is the checker's self-test on a
// trace the solver really produced: the trace is accepted as emitted;
// with one lemma a later step needs dropped, or with one literal of
// one lemma flipped, it is rejected.
func TestRejectsCorruptedSolverTrace(t *testing.T) {
	tr := solverTrace(t)
	if err := check(tr); err != nil {
		t.Fatalf("unmodified trace: %v", err)
	}
	lemmas := lemmaSteps(tr)
	if len(lemmas) < 10 {
		t.Fatalf("only %d lemmas: the instance is too easy to test with", len(lemmas))
	}
	dropped, flipped := 0, 0
	for _, i := range lemmas {
		without := append(append(Trace{}, tr[:i]...), tr[i+1:]...)
		if check(without) != nil {
			dropped++
		}
		bad := append(Trace{}, tr...)
		lits := append([]sat.Lit(nil), tr[i].Lits...)
		lits[0] = lits[0].Not()
		bad[i].Lits = lits
		if check(bad) != nil {
			flipped++
		}
	}
	t.Logf("%d lemmas: dropping one is rejected for %d of them, flipping its first literal for %d", len(lemmas), dropped, flipped)
	if dropped == 0 {
		t.Error("no single dropped lemma was ever missed: the checker is not replaying them")
	}
	if flipped < len(lemmas)/2 {
		t.Errorf("flipping the asserting literal was rejected for only %d of %d lemmas", flipped, len(lemmas))
	}
}

// TestImportsOnlyLit pins the independence claim: the checker's source
// names nothing in package sat except the Lit type and the ProofSink
// interface Audit.New hands out.
func TestImportsOnlyLit(t *testing.T) {
	src, err := os.ReadFile("ruptest.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\bsat\.[A-Za-z_]+\(?`).FindAllString(string(src), -1) {
		if m != "sat.Lit" && m != "sat.ProofSink" {
			t.Errorf("ruptest.go uses %s", m)
		}
	}
}
