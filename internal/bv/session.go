package bv

import (
	"veriopt/internal/sat"
)

// Session is an incremental satisfiability checker for a stream of
// related width-1 queries over one Builder's terms — the refinement
// queries of a single verification. It improves on a fresh Blaster and
// solver per query in three ways:
//
//  1. Shared bit-blasting: one Blaster/Solver pair serves every
//     query, and the blast cache (keyed by term id) survives across
//     queries, so the hash-consed subterms the queries share are
//     translated to CNF exactly once.
//  2. Assumption-based solving: each query's condition is guarded by
//     a fresh activation literal ("act → cond") and solved with
//     sat.Solver.Solve(act). The solver backtracks to level 0 between
//     calls and keeps learnt clauses, variable activities, and saved
//     phases, so near-identical queries reuse earlier search effort.
//     After the answer the activation literal is retired with the
//     unit clause ¬act, permanently relaxing that query's constraint.
//  3. Concrete-execution pre-pass: before touching SAT, the query is
//     evaluated under candidate environments — caller-seeded inputs
//     plus counterexample models from earlier Sat answers in the same
//     session. An environment that satisfies the condition is already
//     a model, so the solver is skipped entirely.
//
// A Session must only see terms from a single Builder (term IDs are
// unique per Builder), and it is not safe for concurrent use.
type Session struct {
	// bl is built, with its solver and proof, by the first query the
	// pre-pass cannot settle: a session the pre-pass answers throughout
	// never blasts, and never pays for the solver's arrays.
	bl    *Blaster
	proof sat.ProofSink
	// budget is the per-query conflict budget (0 = unlimited). The
	// underlying solver budget is topped up before each query so every
	// query gets the same headroom a fresh solver would have.
	budget int
	// envs are the pre-pass candidate environments, in check order:
	// caller seeds first, then models from earlier Sat answers. Until
	// the first model it may be the caller's own capped list.
	envs []map[string]uint64
	// memo serves every evaluation of the pre-pass.
	memo evalMemo

	queries     int
	prepassHits int
}

// NewSession builds a session with the given per-query conflict
// budget (0 = unlimited).
func NewSession(budget int) *Session { return NewSessionProof(budget, nil) }

// NewSessionProof is NewSession whose solver's Proof is proof.
func NewSessionProof(budget int, proof sat.ProofSink) *Session {
	return &Session{proof: proof, budget: budget}
}

// SeedEnv registers candidate environments for the concrete pre-pass.
// Environments are tried in registration order; variables absent from
// an environment evaluate as 0, matching Eval. The session reads envs
// and never writes to it or its maps: a session with no environments
// yet keeps envs itself, capped, so a later append copies it, and many
// sessions can share one read-only list.
func (s *Session) SeedEnv(envs ...map[string]uint64) {
	if len(s.envs) == 0 {
		s.envs = envs[:len(envs):len(envs)]
		return
	}
	s.envs = append(s.envs, envs...)
}

// Conflicts returns the total SAT conflicts spent across the session.
func (s *Session) Conflicts() int {
	if s.bl == nil {
		return 0
	}
	return s.bl.S.Conflicts()
}

// TryConcrete runs only the concrete pre-pass: it reports (result,
// true) when some candidate environment satisfies t, and (zero, false)
// when concrete evaluation cannot settle the query — it never proves
// Unsat. Callers batching several queries into one solver call use it
// to preserve in-order first-hit semantics for the violations the
// environments can expose.
func (s *Session) TryConcrete(t *Term) (Result, bool) {
	if t.Width != 1 {
		panic("bv: TryConcrete on non-boolean term")
	}
	for _, env := range s.envs {
		if v, ok := s.memo.run(t, env); ok && v == 1 {
			s.prepassHits++
			model := make(map[string]uint64, len(env))
			for k, v := range env {
				model[k] = v
			}
			return Result{Status: sat.Sat, Model: model}, true
		}
	}
	return Result{}, false
}

// Check determines satisfiability of the width-1 term t. On Sat,
// Model gives a witness assignment; pre-pass hits return the
// satisfying environment (variables it omits are 0, which is how the
// condition was evaluated). An error means the query exhausted its
// conflict budget (the only error the solver returns); the session
// stays usable.
func (s *Session) Check(t *Term) (Result, error) {
	if t.Width != 1 {
		panic("bv: Check on non-boolean term")
	}
	s.queries++

	// Concrete pre-pass: a candidate environment that satisfies the
	// condition is a model, no solving needed.
	if res, ok := s.TryConcrete(t); ok {
		return res, nil
	}

	// Blast (cached across queries), guard with an activation literal,
	// and solve under that assumption so learnt clauses carry over.
	if s.bl == nil {
		s.bl = NewBlaster(s.proof)
	}
	cond := s.bl.blast(t)[0]
	act := s.bl.freshLit()
	s.bl.S.AddClause(act.Not(), cond)
	if s.budget > 0 {
		s.bl.S.Budget = s.bl.S.Conflicts() + s.budget
	}
	before := s.bl.S.Conflicts()
	st, err := s.bl.S.Solve(act)
	if err != nil {
		// Retire the activation literal even on budget exhaustion, or
		// the abandoned query's constraints would stay conditionally
		// live and could burn later queries' budgets.
		s.bl.S.AddClause(act.Not())
		s.bl.S.Simplify()
		return Result{Status: sat.Unknown, Conflicts: s.bl.S.Conflicts() - before}, err
	}
	res := Result{Status: st, Conflicts: s.bl.S.Conflicts() - before}
	if st == sat.Sat {
		// Read the model before the retiring AddClause resets the
		// trail, and remember it: later queries in the same verify
		// often fail on the same inputs.
		res.Model = s.bl.Model()
		s.envs = append(s.envs, res.Model)
	}
	// Retire the activation literal and drop the now-satisfied guard
	// clauses from the watch lists, so later queries propagate over the
	// live formula only.
	s.bl.S.AddClause(act.Not())
	s.bl.S.Simplify()
	return res, nil
}
