// Package ruptest is an independent forward-RUP proof checker for the
// traces internal/sat emits through its ProofSink. It is test support:
// only _test.go files import it, and it shares nothing with the solver
// but the Lit type — its clause store, its watches and its unit
// propagation are its own, so a bug in the solver's propagation,
// conflict analysis, clause minimization, database reduction or arena
// cannot also hide here.
//
// A lemma is accepted only if asserting the negation of every one of
// its literals propagates to a conflict over the axioms and the lemmas
// accepted so far (reverse unit propagation); an Unsat answer only if
// asserting its assumptions does. Deletions are not traced: keeping a
// clause the solver dropped can only make the checker propagate more,
// and everything it keeps is implied by the axioms.
package ruptest

import (
	"fmt"
	"sync"
	"testing"

	"veriopt/internal/sat"
)

// lit is the solver's literal encoding: variable<<1 | sign.
type lit = sat.Lit

// Step kinds of a recorded trace.
const (
	kindAxiom = 'a'
	kindLemma = 'l'
	kindUnsat = 'u'
)

// Step is one recorded proof event.
type Step struct {
	kind byte
	Lits []lit
}

// Trace records a solver's proof events in order; *Trace is a
// sat.ProofSink. check replays it.
type Trace []Step

func (t *Trace) Axiom(lits []lit) { *t = append(*t, Step{kindAxiom, lits}) }
func (t *Trace) Lemma(lits []lit) { *t = append(*t, Step{kindLemma, lits}) }
func (t *Trace) Unsat(lits []lit) { *t = append(*t, Step{kindUnsat, lits}) }

// check replays a recorded trace through a fresh Checker and returns
// its first rejection.
func check(tr Trace) error {
	c := newChecker()
	for _, st := range tr {
		switch st.kind {
		case kindAxiom:
			c.Axiom(st.Lits)
		case kindLemma:
			c.Lemma(st.Lits)
		case kindUnsat:
			c.Unsat(st.Lits)
		}
	}
	return c.err
}

// Audit hands out one Checker per solver a test builds (the test hands
// New to the code under test as its sink factory, and that code sets
// each sink as one solver's Proof) and judges them together. New and
// Verify may be called from concurrent goroutines, so one Audit serves
// every worker of a parallel run; each Checker serves one solver.
type Audit struct {
	mu       sync.Mutex
	checkers []*Checker
}

// New returns a fresh checker the audit remembers.
func (a *Audit) New() sat.ProofSink {
	c := newChecker()
	a.mu.Lock()
	a.checkers = append(a.checkers, c)
	a.mu.Unlock()
	return c
}

// Verify fails the test on the first lemma or Unsat any checker
// rejected, returns how many solvers, lemmas and Unsat answers were
// checked, and forgets the checkers. The solvers must be done.
func (a *Audit) Verify(t testing.TB) (solvers, lemmas, unsats int) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, c := range a.checkers {
		if err := c.err; err != nil {
			t.Fatalf("solver %d of %d: %v", i+1, len(a.checkers), err)
		}
		lemmas += c.lemmas
		unsats += c.unsats
	}
	solvers, a.checkers = len(a.checkers), a.checkers[:0]
	return solvers, lemmas, unsats
}

// Checker checks a proof online; *Checker is a sat.ProofSink.
type Checker struct {
	clauses [][]lit   // watched literals at [0] and [1]
	watch   [][]int32 // literal -> clauses watching it
	val     []int8    // literal -> +1 true, -1 false, 0 unassigned
	seen    []bool    // literal scratch for add
	// trail holds the permanent unit consequences of the clauses added
	// so far; a check pushes temporary assignments past them and pops
	// them again.
	trail []lit
	head  int
	// refuted: unit propagation alone contradicts the clauses, so every
	// later lemma and Unsat follows.
	refuted bool
	err     error

	// lemmas and Unsats count the events checked.
	lemmas, unsats int
}

// newChecker returns an empty checker.
func newChecker() *Checker { return &Checker{} }

// Axiom adds a problem clause on trust.
func (c *Checker) Axiom(lits []lit) { c.add(lits) }

// Lemma checks that the clause follows by reverse unit propagation,
// then adds it.
func (c *Checker) Lemma(lits []lit) {
	c.lemmas++
	if !c.conflicts(lits, 1) && c.err == nil {
		c.err = fmt.Errorf("ruptest: lemma %d %v is not implied by unit propagation", c.lemmas, lits)
	}
	c.add(lits)
}

// Unsat checks that the assumptions propagate to a conflict.
func (c *Checker) Unsat(assumptions []lit) {
	c.unsats++
	if !c.conflicts(assumptions, 0) && c.err == nil {
		c.err = fmt.Errorf("ruptest: unsat answer %d under %v: unit propagation finds no conflict", c.unsats, assumptions)
	}
}

func (c *Checker) grow(l lit) {
	for int(l|1) >= len(c.val) {
		c.val = append(c.val, 0, 0)
		c.seen = append(c.seen, false, false)
		c.watch = append(c.watch, nil, nil)
	}
}

func (c *Checker) assign(l lit) {
	c.val[l], c.val[l^1] = 1, -1
	c.trail = append(c.trail, l)
}

// conflicts asserts each literal xor flip (1 negates a lemma, 0 takes
// assumptions as they are) on top of the permanent trail, reports
// whether unit propagation reaches a conflict, and undoes the
// assertions.
func (c *Checker) conflicts(lits []lit, flip lit) bool {
	if c.refuted {
		return true
	}
	mark := len(c.trail)
	hit := false
	for _, l := range lits {
		l ^= flip
		c.grow(l)
		if c.val[l] < 0 {
			hit = true
			break
		}
		if c.val[l] == 0 {
			c.assign(l)
		}
	}
	hit = hit || c.propagate()
	for _, l := range c.trail[mark:] {
		c.val[l], c.val[l^1] = 0, 0
	}
	c.trail = c.trail[:mark]
	c.head = mark
	return hit
}

// propagate runs two-watched-literal unit propagation from head and
// reports whether some clause has every literal false.
func (c *Checker) propagate() bool {
	for c.head < len(c.trail) {
		f := c.trail[c.head] ^ 1 // the literal that just became false
		c.head++
		ws := c.watch[f]
		kept := ws[:0]
		for i, ci := range ws {
			cl := c.clauses[ci]
			if cl[0] == f {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if c.val[cl[0]] > 0 {
				kept = append(kept, ci)
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if c.val[cl[k]] >= 0 {
					cl[1], cl[k] = cl[k], cl[1]
					c.watch[cl[1]] = append(c.watch[cl[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, ci)
			if c.val[cl[0]] < 0 {
				c.watch[f] = append(kept, ws[i+1:]...)
				return true
			}
			c.assign(cl[0])
		}
		c.watch[f] = kept
	}
	return false
}

// add stores a clause, simplified against the permanent trail: a clause
// with a permanently true literal is dropped, permanently false
// literals are removed, a unit extends the trail.
func (c *Checker) add(lits []lit) {
	if c.refuted {
		return
	}
	cl := make([]lit, 0, len(lits))
	drop := false
	for _, l := range lits {
		c.grow(l)
		if c.val[l] > 0 || c.seen[l^1] {
			drop = true // satisfied for good, or a tautology
			break
		}
		if c.val[l] < 0 || c.seen[l] {
			continue
		}
		c.seen[l] = true
		cl = append(cl, l)
	}
	for _, l := range cl {
		c.seen[l] = false
	}
	switch {
	case drop:
	case len(cl) == 0:
		c.refuted = true
	case len(cl) == 1:
		c.assign(cl[0])
		c.refuted = c.propagate()
	default:
		ci := int32(len(c.clauses))
		c.clauses = append(c.clauses, cl)
		c.watch[cl[0]] = append(c.watch[cl[0]], ci)
		c.watch[cl[1]] = append(c.watch[cl[1]], ci)
	}
}
