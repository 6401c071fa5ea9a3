package alive_test

// The solver judged from outside: a fixed corpus of verifier queries
// and a fixed bv.Session script, run (1) under the independent RUP
// checker, which must accept every Unsat the solver returns, and (2)
// against testdata/trajectory_golden.json, which pins every verdict and
// every conflict count, so a change to the solver's memory layout can
// show it searched exactly as before. The checked runs must hash to the
// same digests: a proof sink observes the search and changes nothing in
// it. The corpus runs every query twice,
// through the session and through the fresh-solver reference
// (VerifyFresh, ref_test.go), which is why it lives here and not in
// package sat. External test package: dataset imports alive.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/bv"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
	"veriopt/internal/rewrite"
	"veriopt/internal/ruptest"
	"veriopt/internal/sat"
)

// corpusSeed and corpusN fix the corpus slice: eight instances of each
// of the 36 templates, so all five scenario families are in it. (Four,
// until bv's normal form folded half of their Unsat answers before a
// solver was built and TestProofReplayCorpus fell under its floor; the
// first 144 samples are the old slice.)
const (
	corpusSeed = 18
	corpusN    = 288
)

// runCorpus verifies every sample's (O0, Ref) pair and every
// rewrite.Unsound() mutant of Ref that applies, each with the session
// solver and with a fresh solver per query, every solver taking its
// proof sink from proof (nil: no proof), and returns one line per
// verification: what was asked, the verdict, the conflicts spent. work
// has one line per session verification: what executing each side took
// (edges, instructions, merges) and how many times bv's normal form
// fired, walks included. cnf has one line per session verification too:
// the sha256 of the axioms, lemmas and Unsat answers its solver was
// told, in order (what a cnfHash sees, in front of proof's sink), which
// pins the variable numbering and the clause order the blaster feeds
// the solver.
func runCorpus(t testing.TB, proof func() sat.ProofSink) (lines, work, cnf []string) {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: corpusSeed, N: corpusN, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]int{}
	for _, s := range samples {
		families[s.Scenario]++
	}
	for _, f := range []string{dataset.ScenarioScalar, dataset.ScenarioControlFlow, dataset.ScenarioLoop,
		dataset.ScenarioWideInt, dataset.ScenarioAdversarial} {
		if families[f] == 0 {
			t.Fatalf("corpus slice has no %s sample: %v", f, families)
		}
	}
	opts := alive.DefaultOptions()
	opts.SolverBudget = 20000
	for i, s := range samples {
		targets := []*ir.Function{s.Ref}
		names := []string{"ref"}
		for _, rule := range rewrite.Unsound() {
			if !rule.Applicable(s.Ref) {
				continue
			}
			g := ir.CloneFunc(s.Ref)
			if rule.Apply(g, rand.New(rand.NewSource(int64(i)))) && ir.VerifyFunc(g) == nil {
				targets = append(targets, g)
				names = append(names, rule.Name)
			}
		}
		for j, tgt := range targets {
			for _, fresh := range []bool{false, true} {
				var sinks []*cnfHash
				res, hits, counts := alive.VerifyRuleHits(s.O0, tgt, opts, func() sat.ProofSink {
					h := &cnfHash{h: sha256.New()}
					if proof != nil {
						h.next = proof()
					}
					sinks = append(sinks, h)
					return h
				})
				if fresh {
					res = alive.VerifyFresh(context.Background(), s.O0, tgt, opts, false, proof)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s fresh=%v %v %d",
					s.Scenario, s.Template, names[j], fresh, res.Verdict, res.SolverConflicts))
				if !fresh {
					total := 0
					for _, n := range hits {
						total += n
					}
					work = append(work, fmt.Sprintf("%s %s %s src=%+v tgt=%+v hits=%d",
						s.Scenario, s.Template, names[j], counts[0], counts[1], total))
					line := fmt.Sprintf("%s %s %s", s.Scenario, s.Template, names[j])
					for _, h := range sinks {
						line += fmt.Sprintf(" %x", h.h.Sum(nil))
					}
					cnf = append(cnf, line)
				}
			}
		}
	}
	return lines, work, cnf
}

// cnfHash is a proof sink that hashes every step it is told, its kind
// and its literals, and passes it on to next, if any.
type cnfHash struct {
	h    hash.Hash
	next sat.ProofSink
}

func (c *cnfHash) step(kind byte, lits []sat.Lit) {
	buf := make([]byte, 0, 5+4*len(lits))
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(lits)))
	for _, l := range lits {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	c.h.Write(buf)
}

func (c *cnfHash) Axiom(lits []sat.Lit) {
	c.step('a', lits)
	if c.next != nil {
		c.next.Axiom(lits)
	}
}

func (c *cnfHash) Lemma(lits []sat.Lit) {
	c.step('l', lits)
	if c.next != nil {
		c.next.Lemma(lits)
	}
}

func (c *cnfHash) Unsat(assumptions []sat.Lit) {
	c.step('u', assumptions)
	if c.next != nil {
		c.next.Unsat(assumptions)
	}
}

// runSessionScript drives bv.Session the way one long verification would:
// queries over shared subterms, Unsat and Sat answers interleaved,
// repeats that can lean on carried-over lemmas, a pre-pass hit, and —
// in a second session — budget exhaustion followed by more queries.
// newSession builds each session from its per-query budget.
func runSessionScript(t testing.TB, newSession func(budget int) *bv.Session) []string {
	t.Helper()
	var lines []string
	ask := func(sess *bv.Session, name string, cond *bv.Term) {
		res, err := sess.Check(cond)
		lines = append(lines, fmt.Sprintf("%s %v %d err=%v", name, res.Status, res.Conflicts, err))
		if res.Status == sat.Sat {
			if v, ok := bv.Eval(cond, res.Model); !ok || v != 1 {
				t.Fatalf("%s: model %v does not satisfy the query", name, res.Model)
			}
		}
	}
	for _, run := range []struct {
		name   string
		w      int
		budget int
	}{{"w5", 5, 0}, {"w8-budget", 8, 300}} {
		b := bv.NewBuilder()
		w := run.w
		x, y, z := b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")
		c := func(v uint64) *bv.Term { return b.Const(w, v) }
		ne := func(l, r *bv.Term) *bv.Term { return b.Not(b.Eq(l, r)) }
		mul, add, sub := func(l, r *bv.Term) *bv.Term { return b.Bin(bv.OpMul, l, r) },
			func(l, r *bv.Term) *bv.Term { return b.Bin(bv.OpAdd, l, r) },
			func(l, r *bv.Term) *bv.Term { return b.Bin(bv.OpSub, l, r) }
		and, or, xor := func(l, r *bv.Term) *bv.Term { return b.Bin(bv.OpAnd, l, r) },
			func(l, r *bv.Term) *bv.Term { return b.Bin(bv.OpOr, l, r) },
			func(l, r *bv.Term) *bv.Term { return b.Bin(bv.OpXor, l, r) }
		xy := mul(x, y)
		queries := []struct {
			name string
			cond *bv.Term
		}{
			{"distrib-one", ne(mul(x, add(y, c(1))), add(xy, x))},
			{"xor-and-add", ne(add(xor(x, y), mul(c(2), and(x, y))), add(x, y))},
			{"factor", b.BoolAnd(b.Eq(xy, c(35)), b.BoolAnd(b.Cmp(bv.OpUlt, c(1), x), b.Cmp(bv.OpUlt, c(1), y)))},
			{"or-minus-and", ne(sub(or(x, y), and(x, y)), xor(x, y))},
			{"cycle", b.BoolAnd(b.Cmp(bv.OpUlt, x, y), b.BoolAnd(b.Cmp(bv.OpUlt, y, z), b.Cmp(bv.OpUlt, z, x)))},
			{"square-is-2", b.Eq(mul(x, x), c(2))},
			{"distrib", ne(mul(x, add(y, z)), add(xy, mul(x, z)))},
			{"distrib-one-again", ne(mul(x, add(y, c(1))), add(xy, x))},
			{"divmod", b.BoolAnd(ne(y, c(0)), ne(add(mul(b.Bin(bv.OpUDiv, x, y), y), b.Bin(bv.OpURem, x, y)), x))},
			{"shl-is-double", ne(b.Bin(bv.OpShl, x, c(1)), add(x, x))},
			{"square-is-4", b.Eq(mul(x, x), c(4))},
			{"prepass", b.Eq(x, c(2))},
			{"neg-mul", ne(mul(b.Neg(x), y), b.Neg(xy))},
			{"square-is-2-again", b.Eq(mul(x, x), c(2))},
		}
		sess := newSession(run.budget)
		sess.SeedEnv(map[string]uint64{"x": 0, "y": 0, "z": 0})
		for _, q := range queries {
			ask(sess, run.name+"/"+q.name, q.cond)
		}
	}
	return lines
}

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestProofReplayCorpus: the checker accepts every Unsat behind every
// verdict over the corpus slice, session and fresh, and the checked run
// decides what the golden says, conflict for conflict.
func TestProofReplayCorpus(t *testing.T) {
	t.Parallel()
	a := &ruptest.Audit{}
	lines, work, cnf := runCorpus(t, a.New)
	solvers, lemmas, unsats := a.Verify(t)
	t.Logf("%d verifications on %d solvers: %d lemmas and %d Unsat answers replayed", len(lines), solvers, lemmas, unsats)
	if unsats < 100 || lemmas < 10000 {
		t.Errorf("coverage too thin: %d Unsat answers, %d lemmas", unsats, lemmas)
	}
	if want := readTrajectoryGolden(t); len(lines) != want.CorpusRuns || digest(lines) != want.CorpusSHA256 {
		t.Errorf("under the checker: %d runs, sha256 %s; golden: %d, %s", len(lines), digest(lines), want.CorpusRuns, want.CorpusSHA256)
	} else if digest(work) != want.CorpusWorkSHA256 {
		t.Errorf("under the checker: work sha256 %s; golden: %s", digest(work), want.CorpusWorkSHA256)
	} else if digest(cnf) != want.CorpusCNFSHA256 {
		t.Errorf("under the checker: CNF sha256 %s; golden: %s", digest(cnf), want.CorpusCNFSHA256)
	}
}

// TestProofReplaySession: the same over bv.Session reuse, where lemmas
// learnt under one query's activation literal outlive it.
func TestProofReplaySession(t *testing.T) {
	t.Parallel()
	a := &ruptest.Audit{}
	lines := runSessionScript(t, func(budget int) *bv.Session { return bv.NewSessionProof(budget, a.New()) })
	solvers, lemmas, unsats := a.Verify(t)
	t.Logf("%d queries on %d solvers: %d lemmas and %d Unsat answers replayed", len(lines), solvers, lemmas, unsats)
	if unsats < 10 || lemmas < 1000 {
		t.Errorf("coverage too thin: %d Unsat answers, %d lemmas", unsats, lemmas)
	}
	if want := readTrajectoryGolden(t); len(lines) != want.SessionQueries || digest(lines) != want.SessionSHA256 {
		t.Errorf("under the checker: %d queries, sha256 %s; golden: %d, %s", len(lines), digest(lines), want.SessionQueries, want.SessionSHA256)
	}
}

// TestProofReplayWorkers: one Audit serves every worker of a parallel
// run, as an audit of the oracle stack's traffic needs. Two workers
// drive a stack whose base verifier hands the audit's factory to each
// verification, over the head of the corpus slice and a mutant of each,
// and must reach the verdicts VerifyFuncs reaches.
func TestProofReplayWorkers(t *testing.T) {
	t.Parallel()
	samples, err := dataset.Generate(dataset.Config{Seed: corpusSeed, N: 72, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]*ir.Function
	for i, s := range samples {
		pairs = append(pairs, [2]*ir.Function{s.O0, s.Ref})
		for _, rule := range rewrite.Unsound() {
			if g := ir.CloneFunc(s.Ref); rule.Applicable(s.Ref) && rule.Apply(g, rand.New(rand.NewSource(int64(i)))) && ir.VerifyFunc(g) == nil {
				pairs = append(pairs, [2]*ir.Function{s.O0, g})
				break
			}
		}
	}
	a := &ruptest.Audit{}
	stack := oracle.NewStack(oracle.Config{Base: oracle.Func(func(_ context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		res, _, _ := alive.VerifyRuleHits(src, tgt, opts, a.New)
		return res
	})})
	got := make([]alive.Verdict, len(pairs))
	if err := par.For(context.Background(), 2, len(pairs), func(i int) {
		got[i] = stack.Verify(context.Background(), pairs[i][0], pairs[i][1], alive.DefaultOptions()).Verdict
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if want := alive.VerifyFuncs(p[0], p[1], alive.DefaultOptions()).Verdict; got[i] != want {
			t.Errorf("%s: %v through the audited stack, %v unaudited", p[0].NameStr, got[i], want)
		}
	}
	solvers, lemmas, unsats := a.Verify(t)
	t.Logf("%d verifications on %d solvers: %d lemmas and %d Unsat answers replayed", len(pairs), solvers, lemmas, unsats)
	if unsats == 0 || lemmas == 0 {
		t.Errorf("coverage too thin: %d Unsat answers, %d lemmas", unsats, lemmas)
	}
}

type trajectoryGolden struct {
	Note string `json:"note"`
	// CorpusRuns and SessionQueries are how many lines each digest covers.
	CorpusRuns   int    `json:"corpus_runs"`
	CorpusSHA256 string `json:"corpus_sha256"`
	// CorpusWorkSHA256 covers one line per session verification of the
	// corpus: each side's paths, steps and merges and the rule hits.
	CorpusWorkSHA256 string `json:"corpus_work_sha256"`
	// CorpusCNFSHA256 covers one line per session verification of the
	// corpus: the hash of every axiom, lemma and Unsat its solver saw.
	CorpusCNFSHA256 string `json:"corpus_cnf_sha256"`
	SessionQueries  int    `json:"session_queries"`
	SessionSHA256   string `json:"session_sha256"`
}

// TestTrajectoryGolden pins what the solver decided: the ordered
// (verdict, SolverConflicts) of the corpus slice and the ordered
// (Status, Conflicts) of the session script. The file was written by
// the heap-object clause database (the commit before the arena); a
// layout change must leave its numbers equal, and only a deliberate
// change to the search itself may run -update. (It lived in package sat
// until the fresh solver became a test reference of alive.) The work
// digest pins what alive itself did on the way, which a change to the
// executor's memory layout must leave equal too: each side's edges,
// instructions and merges, and the normal form's rule hits. The CNF
// digest pins what reached each session's solver, variable for variable
// and clause for clause, which a change to the blaster's or the
// solver's memory must leave equal.
func TestTrajectoryGolden(t *testing.T) {
	corpus, work, cnf := runCorpus(t, nil)
	session := runSessionScript(t, bv.NewSession)
	got := trajectoryGolden{
		Note:             "sha256 over one line per verification/query; go test ./internal/alive -run TrajectoryGolden -update",
		CorpusRuns:       len(corpus),
		CorpusSHA256:     digest(corpus),
		CorpusWorkSHA256: digest(work),
		CorpusCNFSHA256:  digest(cnf),
		SessionQueries:   len(session),
		SessionSHA256:    digest(session),
	}
	if *alive.UpdateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readTrajectoryGolden(t); got != want {
		t.Errorf("trajectory moved:\n got %+v\nwant %+v", got, want)
		for _, l := range session {
			t.Log(l)
		}
	}
}

const trajectoryPath = "testdata/trajectory_golden.json"

func readTrajectoryGolden(t testing.TB) trajectoryGolden {
	t.Helper()
	raw, err := os.ReadFile(trajectoryPath)
	if err != nil {
		t.Fatal(err)
	}
	var g trajectoryGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}
