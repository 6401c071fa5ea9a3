package bv

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"veriopt/internal/ruptest"
	"veriopt/internal/sat"
)

// randomBoolTerm builds a random width-1 condition over shared
// variables x, y, z of width w, with nesting depth d.
func randomBoolTerm(b *Builder, rng *rand.Rand, w, d int) *Term {
	vars := []*Term{b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")}
	var val func(d int) *Term
	val = func(d int) *Term {
		if d <= 0 || rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				return vars[rng.Intn(len(vars))]
			}
			return b.Const(w, rng.Uint64())
		}
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
		return b.Bin(ops[rng.Intn(len(ops))], val(d-1), val(d-1))
	}
	cmps := []Op{opEq, OpUlt, OpUle, OpSlt, OpSle}
	cond := b.Cmp(cmps[rng.Intn(len(cmps))], val(d), val(d))
	for rng.Intn(2) == 0 {
		next := b.Cmp(cmps[rng.Intn(len(cmps))], val(d), val(d))
		if rng.Intn(2) == 0 {
			cond = b.BoolAnd(cond, next)
		} else {
			cond = b.BoolOr(cond, next)
		}
	}
	if rng.Intn(4) == 0 {
		cond = b.Not(cond)
	}
	return cond
}

// sessionVsFresh is the session's core soundness check on one stream
// of random related queries drawn from rng: a session must agree with
// fresh per-query checkSat on the verdict, every Sat model — pre-pass
// or solver — must concretely satisfy its query under Eval, and every
// Unsat, session's or fresh, must come with a proof the checker
// accepts. A query either side cannot settle within budget is skipped.
func sessionVsFresh(t testing.TB, rng *rand.Rand, budget int) {
	t.Helper()
	// Every solver built below, the session's and each fresh one, gets
	// its own RUP checker (internal/ruptest): an Unsat is not merely
	// agreed on by two runs of the same solver code but replayed by
	// independent unit propagation.
	a := &ruptest.Audit{}
	b := NewBuilder()
	w := []int{4, 8, 16}[rng.Intn(3)]
	sess := NewSessionProof(budget, a.New())
	// Seed a few environments like the verifier does, so the
	// pre-pass path is exercised too.
	sess.SeedEnv(map[string]uint64{"x": 0, "y": 0, "z": 0})
	sess.SeedEnv(map[string]uint64{"x": mask(w), "y": 1, "z": 1 << (w - 1)})
	nQ := 2 + rng.Intn(6)
	for q := 0; q < nQ; q++ {
		cond := randomBoolTerm(b, rng, w, 2)
		fresh, ferr := checkSat(cond, budget, a.New())
		got, serr := sess.Check(cond)
		if budget == 0 && (ferr != nil || serr != nil) {
			t.Fatalf("q %d: fresh: %v, session: %v", q, ferr, serr)
		}
		if ferr != nil || serr != nil {
			continue
		}
		if got.Status != fresh.Status {
			t.Fatalf("q %d: session=%v fresh=%v for %v", q, got.Status, fresh.Status, cond)
		}
		if got.Status == sat.Sat {
			if v, ok := Eval(cond, got.Model); !ok || v != 1 {
				t.Fatalf("q %d: session model %v does not satisfy %v (v=%d ok=%v)", q, got.Model, cond, v, ok)
			}
			if v, ok := Eval(cond, fresh.Model); !ok || v != 1 {
				t.Fatalf("q %d: fresh model does not satisfy its own query", q)
			}
		}
	}
	a.Verify(t)
}

// TestSessionDifferentialFuzz runs sessionVsFresh over 40 seeded
// streams with no conflict budget.
func TestSessionDifferentialFuzz(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 40; iter++ {
		sessionVsFresh(t, rng, 0)
	}
}

// byteSource is a rand.Source that spends the fuzzer's bytes, eight per
// draw, so the fuzzer's mutations steer term shape, width and constants
// directly; once they run out it continues from a seeded generator (a
// constant tail would spin randomBoolTerm's "one more conjunct?" loop
// or rand's rejection sampling forever).
type byteSource struct {
	data []byte
	tail rand.Source
}

func (s *byteSource) Seed(int64) {}
func (s *byteSource) Int63() int64 {
	if len(s.data) < 8 {
		return s.tail.Int63()
	}
	v := binary.BigEndian.Uint64(s.data)
	s.data = s.data[8:]
	return int64(v >> 1)
}

// FuzzSessionVsFresh is sessionVsFresh as a native fuzz target (make
// fuzz-smoke): the solver stack, which mints the reward, under
// go test -fuzz with the proof checker as its oracle. The per-query
// budget keeps one exec short; a query that exhausts it is skipped.
func FuzzSessionVsFresh(f *testing.F) {
	seed := rand.New(rand.NewSource(1234))
	for i := 0; i < 8; i++ {
		data := make([]byte, 512)
		seed.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sessionVsFresh(t, rand.New(&byteSource{data, rand.NewSource(int64(len(data)))}), 3000)
	})
}

// TestSessionSharedBlasting: across a stream of queries over shared
// subterms, the session's solver allocates far fewer variables than
// the sum of fresh per-query blasts, because each shared subterm
// blasts once.
func TestSessionSharedBlasting(t *testing.T) {
	b := NewBuilder()
	w := 16
	x := b.Var(w, "x")
	y := b.Var(w, "y")
	// One expensive shared core (a multiplier), many cheap variants.
	core := b.Bin(OpMul, x, y)
	conds := []*Term{
		b.Cmp(opEq, core, b.Const(w, 42)),
		b.Cmp(OpUlt, core, b.Const(w, 42)),
		b.Cmp(OpUle, core, x),
		b.Cmp(OpSlt, core, y),
	}
	sess := NewSession(0)
	freshVars := 0
	for _, c := range conds {
		if _, err := sess.Check(c); err != nil {
			t.Fatal(err)
		}
		bl := NewBlaster(nil)
		bl.blast(c)
		freshVars += bl.S.NumVars()
	}
	if got := sess.bl.S.NumVars(); got >= freshVars {
		t.Fatalf("session allocated %d vars, fresh-per-query total %d: no sharing", got, freshVars)
	}
}

// TestSessionPrepass: a seeded environment that satisfies the query
// answers it without any solver work.
func TestSessionPrepass(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	sess := NewSession(0)
	sess.SeedEnv(map[string]uint64{"x": 7})
	res, err := sess.Check(b.Cmp(opEq, x, b.Const(8, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat || res.Model["x"] != 7 {
		t.Fatalf("res = %+v, want pre-pass Sat with x=7", res)
	}
	st := sess.stats()
	if st.prepassHits != 1 || st.conflicts != 0 {
		t.Fatalf("stats = %+v, want 1 pre-pass hit and 0 conflicts", st)
	}
	// A later Sat answer from the solver becomes a candidate env for
	// subsequent queries.
	res, err = sess.Check(b.Cmp(opEq, x, b.Const(8, 9)))
	if err != nil || res.Status != sat.Sat {
		t.Fatalf("solver query: %+v, %v", res, err)
	}
	res, err = sess.Check(b.Cmp(OpUlt, b.Const(8, 8), x)) // x > 8: model x=9 hits
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("res = %+v, want Sat", res)
	}
	if sess.stats().prepassHits != 2 {
		t.Fatalf("stats = %+v, want the earlier model to answer the third query", sess.stats())
	}
}

// TestSessionUnsatThenUsable: an unsat query must not poison later
// queries in the same session.
func TestSessionUnsatThenUsable(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	sess := NewSession(0)
	res, err := sess.Check(b.BoolAnd(b.Cmp(opEq, x, b.Const(8, 1)), b.Cmp(opEq, x, b.Const(8, 2))))
	if err != nil || res.Status != sat.Unsat {
		t.Fatalf("contradiction: %+v, %v, want Unsat", res, err)
	}
	res, err = sess.Check(b.Cmp(opEq, x, b.Const(8, 1)))
	if err != nil || res.Status != sat.Sat {
		t.Fatalf("after unsat: %+v, %v, want Sat", res, err)
	}
	if res.Model["x"] != 1 {
		t.Fatalf("model x = %d, want 1", res.Model["x"])
	}
}

// TestSessionBudget: each query gets its own conflict budget (the
// solver's budget is topped up per query), and exhaustion surfaces
// the solver's budget error while keeping the session usable.
func TestSessionBudget(t *testing.T) {
	b := NewBuilder()
	w := 24
	x := b.Var(w, "x")
	y := b.Var(w, "y")
	// A hard unsat instance: distributivity violation. (Commuted
	// multiplication no longer works here — the builder canonicalizes
	// commutative operands, folding that query to constant false.)
	one := b.Const(w, 1)
	lhs := b.Bin(OpMul, x, b.Bin(OpAdd, y, one))
	rhs := b.Bin(OpAdd, b.Bin(OpMul, x, y), x)
	hard := b.Not(b.Eq(lhs, rhs))
	sess := NewSession(50)
	_, err := sess.Check(hard)
	if err == nil || err.Error() != "sat: conflict budget exhausted" {
		t.Fatalf("err = %v, want the conflict budget error", err)
	}
	// An easy follow-up query still gets its own budget (a Sat answer
	// must complete a model over the abandoned query's gates too, so
	// it spends a few conflicts — but nowhere near another 50).
	res, err := sess.Check(b.Cmp(opEq, x, b.Const(w, 5)))
	if err != nil || res.Status != sat.Sat {
		t.Fatalf("after budget exhaustion: %+v, %v, want Sat", res, err)
	}
}

// TestSessionDeterminism: the same query stream yields bit-identical
// results on a fresh session.
func TestSessionDeterminism(t *testing.T) {
	run := func() []Result {
		rng := rand.New(rand.NewSource(77))
		b := NewBuilder()
		sess := NewSession(0)
		sess.SeedEnv(map[string]uint64{"x": 3, "y": 200, "z": 9})
		var out []Result
		for q := 0; q < 12; q++ {
			res, err := sess.Check(randomBoolTerm(b, rng, 8, 2))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	a, c := run(), run()
	for i := range a {
		if a[i].Status != c[i].Status || a[i].Conflicts != c[i].Conflicts {
			t.Fatalf("query %d: %+v vs %+v", i, a[i], c[i])
		}
		if len(a[i].Model) != len(c[i].Model) {
			t.Fatalf("query %d: model sizes differ", i)
		}
		for k, v := range a[i].Model {
			if c[i].Model[k] != v {
				t.Fatalf("query %d: model[%s] = %d vs %d", i, k, v, c[i].Model[k])
			}
		}
	}
}

// sessionStats reports what a session did, for the tests.
type sessionStats struct {
	// queries is the number of Check calls.
	queries int
	// prepassHits counts queries answered by concrete evaluation
	// without running the solver.
	prepassHits int
	// conflicts is the total number of SAT conflicts spent.
	conflicts int
}

// stats returns a snapshot of the session's counters.
func (s *Session) stats() sessionStats {
	return sessionStats{queries: s.queries, prepassHits: s.prepassHits, conflicts: s.Conflicts()}
}
