package main

import (
	"math/rand"
	"runtime"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/bv"
	"veriopt/internal/ir"
	"veriopt/internal/sat"
	"veriopt/internal/seqopt"
	"veriopt/internal/vcache"
)

// Probes time one layer alone, single-threaded, after the servers have
// stopped: the layers no seam separates (IR parsing inside the HTTP
// handler, bit-blasting and SAT inside alive, pass application inside
// seqopt). Each probe repeats probeRounds times and reports the median
// round.
const (
	probeRounds = 5
	probePairsN = 256 // queries taken from the head of the workload's op list
)

// pair is one verification query as IR text.
type pair struct{ src, tgt string }

type probeResult struct {
	parseUs, canonUs float64 // per query: both functions
	allocsPerVerify  float64
	bvCheckUs        float64 // per Session.Check
	satSolveMs       float64 // per CNF instance
	passApplyUs      float64 // per Pass.Apply
}

func runProbes(pairs []pair) probeResult {
	var r probeResult
	type fns struct{ src, tgt *ir.Function }
	parsed := make([]fns, 0, len(pairs))
	for _, p := range pairs {
		src, err1 := ir.ParseFunc(p.src)
		tgt, err2 := ir.ParseFunc(p.tgt)
		if err1 == nil && err2 == nil {
			parsed = append(parsed, fns{src, tgt})
		}
	}
	if len(parsed) == 0 {
		return r
	}
	perQuery := func(d time.Duration) float64 { return us(d) / float64(len(parsed)) }

	r.parseUs = medianRound(func() float64 {
		t0 := time.Now()
		for _, p := range pairs {
			for _, text := range []string{p.src, p.tgt} {
				if f, err := ir.ParseFunc(text); err == nil {
					sink += len(f.Blocks)
					if ir.VerifyFunc(f) != nil {
						sink++
					}
				}
			}
		}
		return us(time.Since(t0)) / float64(len(pairs))
	})
	r.canonUs = medianRound(func() float64 {
		t0 := time.Now()
		for _, p := range parsed {
			k := vcache.Key{Src: vcache.KeyOfFunc(p.src), Dst: vcache.KeyOfFunc(p.tgt), Opts: alive.DefaultOptions()}
			sink += int(k.Fingerprint()[0])
		}
		return perQuery(time.Since(t0))
	})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range parsed {
		sink += int(alive.VerifyFuncs(p.src, p.tgt, alive.DefaultOptions()).Verdict)
	}
	runtime.ReadMemStats(&m1)
	r.allocsPerVerify = float64(m1.Mallocs-m0.Mallocs) / float64(len(parsed))

	passes := seqopt.Registry()
	r.passApplyUs = medianRound(func() float64 {
		t0 := time.Now()
		for _, p := range parsed {
			for _, pass := range passes {
				if _, changed := pass.Apply(p.src); changed {
					sink++
				}
			}
		}
		return us(time.Since(t0)) / float64(len(parsed)*len(passes))
	})

	r.bvCheckUs = medianRound(bvSuite)
	r.satSolveMs = medianRound(satSuite)
	return r
}

// sink keeps the compiler from discarding probed calls.
var sink int

func medianRound(round func() float64) float64 {
	v := make([]float64, probeRounds)
	for i := range v {
		v[i] = round()
	}
	return median(v)
}

// bvSuite runs a fixed set of refinement-shaped queries — identities
// whose negation is unsatisfiable, and a few satisfiable searches —
// through one bv.Session per width, as a verification does, and returns
// µs per Check. (Multiplier identities such as distributivity are left
// out: the solver does not finish them even at 6 bits.)
func bvSuite() float64 {
	checks := 0
	t0 := time.Now()
	for _, w := range []int{8, 12, 16} {
		b := bv.NewBuilder()
		x, y, z := b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")
		c := func(v uint64) *bv.Term { return b.Const(w, v) }
		add := func(p, q *bv.Term) *bv.Term { return b.Bin(bv.OpAdd, p, q) }
		mul := func(p, q *bv.Term) *bv.Term { return b.Bin(bv.OpMul, p, q) }
		queries := []*bv.Term{
			// unsat: negated identities
			b.BoolNot(b.Eq(add(b.Bin(bv.OpAnd, x, y), b.Bin(bv.OpOr, x, y)), add(x, y))),
			b.BoolNot(b.Eq(b.Bin(bv.OpXor, x, y), b.Bin(bv.OpSub, b.Bin(bv.OpOr, x, y), b.Bin(bv.OpAnd, x, y)))),
			b.BoolNot(b.Eq(b.Bin(bv.OpShl, x, c(3)), mul(x, c(8)))),
			b.BoolNot(b.Eq(add(mul(b.Bin(bv.OpUDiv, x, c(3)), c(3)), b.Bin(bv.OpURem, x, c(3))), x)),
			b.BoolNot(b.Implies(b.BoolAnd(b.Cmp(bv.OpUlt, x, y), b.Cmp(bv.OpUlt, y, z)), b.Cmp(bv.OpUlt, x, z))),
			b.BoolNot(b.Eq(b.Ite(b.Cmp(bv.OpSlt, x, y), x, y), b.Ite(b.Cmp(bv.OpSle, y, x), y, x))),
			// sat: searches the concrete pre-pass is unlikely to hit
			b.BoolAnd(b.Eq(add(x, y), c(0x5a)), b.Eq(b.Bin(bv.OpXor, x, y), c(0x24))),
			b.BoolAnd(b.Eq(mul(x, c(37)), c(111)), b.Cmp(bv.OpUlt, c(3), x)),
		}
		s := bv.NewSession(0)
		for _, q := range queries {
			res, err := s.Check(q)
			if err != nil {
				panic("bench: bv probe: " + err.Error()) // no budget set, so Check cannot fail
			}
			sink += int(res.Status)
			checks++
		}
	}
	return us(time.Since(t0)) / float64(checks)
}

// satSuite solves a fixed seeded CNF suite — random 3-SAT at the
// satisfiability threshold and pigeonhole instances — and returns ms
// per instance.
func satSuite() float64 {
	instances := 0
	t0 := time.Now()
	rng := rand.New(rand.NewSource(20260928))
	for i := 0; i < 12; i++ {
		const vars, clauses = 90, 383 // ratio ≈ 4.26
		s := sat.New()
		for v := 0; v < vars; v++ {
			s.NewVar()
		}
		for c := 0; c < clauses; c++ {
			s.AddClause(
				sat.MkLit(rng.Intn(vars), rng.Intn(2) == 0),
				sat.MkLit(rng.Intn(vars), rng.Intn(2) == 0),
				sat.MkLit(rng.Intn(vars), rng.Intn(2) == 0))
		}
		st, err := s.Solve()
		if err != nil {
			panic("bench: sat probe: " + err.Error()) // no budget set
		}
		sink += int(st)
		instances++
	}
	for _, holes := range []int{5, 6} {
		s := sat.New()
		pigeons := holes + 1
		at := func(p, h int) int { return p*holes + h }
		for i := 0; i < pigeons*holes; i++ {
			s.NewVar()
		}
		for p := 0; p < pigeons; p++ {
			lits := make([]sat.Lit, holes)
			for h := range lits {
				lits[h] = sat.MkLit(at(p, h), false)
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p := 0; p < pigeons; p++ {
				for q := p + 1; q < pigeons; q++ {
					s.AddClause(sat.MkLit(at(p, h), true), sat.MkLit(at(q, h), true))
				}
			}
		}
		st, err := s.Solve()
		if err != nil {
			panic("bench: sat probe: " + err.Error())
		}
		sink += int(st)
		instances++
	}
	return ms(time.Since(t0)) / float64(instances)
}
