package veriopt

// Solver-wall benchmark: the cold-cache verification workload run
// through the fresh-solver-per-query path versus the incremental
// session path (the default), isolating the live SAT cost the verdict
// cache cannot hide. BenchmarkSolverWall{Fresh,Session} time the two;
// TestSolverWallBench holds them to the same verdicts.

import (
	"sync"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

type verifyPair struct {
	name     string
	src, tgt *ir.Function
}

var (
	solverPairsOnce sync.Once
	solverPairs     []verifyPair
	solverPairsErr  error
)

// solverWorkload builds the cold-cache workload: dataset (O0, Ref)
// pairs — the equivalence proofs training performs constantly — plus a
// constant-perturbed mutant per sample, standing in for the wrong
// model outputs the verifier rejects.
func solverWorkload(tb testing.TB) []verifyPair {
	tb.Helper()
	solverPairsOnce.Do(func() {
		samples, err := dataset.Generate(dataset.Config{Seed: 29, N: 32, SkipVerify: true})
		if err != nil {
			solverPairsErr = err
			return
		}
		for _, s := range samples {
			solverPairs = append(solverPairs, verifyPair{name: s.Name, src: s.O0, tgt: s.Ref})
			if broken := perturbConst(s.Ref); broken != nil {
				solverPairs = append(solverPairs, verifyPair{name: s.Name + "/broken", src: s.O0, tgt: broken})
			}
		}
	})
	if solverPairsErr != nil {
		tb.Fatal(solverPairsErr)
	}
	return solverPairs
}

// perturbConst clones f and bumps the first binary-op constant, making
// a semantically different target (nil when there is none).
func perturbConst(f *ir.Function) *ir.Function {
	g := ir.CloneFunc(f)
	broken := false
	g.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if broken || !in.Op.IsBinary() {
			return
		}
		if c, ok := in.Args[1].(*ir.Const); ok {
			in.Args[1] = ir.NewConst(c.Ty, c.Signed()+1)
			broken = true
		}
	})
	if !broken || ir.VerifyFunc(g) != nil {
		return nil
	}
	return g
}

// runSolverWall verifies the whole workload under opts, returning the
// verdicts, the total SAT conflicts, and the wall-clock spent.
func runSolverWall(pairs []verifyPair, opts alive.Options) ([]alive.Verdict, int, time.Duration) {
	verdicts := make([]alive.Verdict, len(pairs))
	conflicts := 0
	t0 := time.Now()
	for i, p := range pairs {
		res := alive.VerifyFuncs(p.src, p.tgt, opts)
		verdicts[i] = res.Verdict
		conflicts += res.SolverConflicts
	}
	return verdicts, conflicts, time.Since(t0)
}

func solverOpts(fresh bool) alive.Options {
	o := alive.DefaultOptions()
	o.FreshSolver = fresh
	return o
}

// TestSolverWallBench runs both solver paths over the workload and
// requires verdict parity between them on every pair. The walls and
// conflict counts are logged, not asserted: tier-1 must not fail on a
// loaded machine.
func TestSolverWallBench(t *testing.T) {
	pairs := solverWorkload(t)
	if len(pairs) < 32 {
		t.Fatalf("workload: %d pairs, want the 32 samples and their mutants", len(pairs))
	}
	fv, fc, fw := runSolverWall(pairs, solverOpts(true))
	sv, sc, sw := runSolverWall(pairs, solverOpts(false))
	for i := range pairs {
		if fv[i] != sv[i] {
			t.Errorf("%s: fresh=%v session=%v", pairs[i].name, fv[i], sv[i])
		}
	}
	t.Logf("workload: %d pairs", len(pairs))
	t.Logf("fresh:   %v wall, %d conflicts", fw, fc)
	t.Logf("session: %v wall, %d conflicts", sw, sc)
}

// BenchmarkSolverWallFresh times the pre-session path: a fresh
// bit-blast and solver per refinement query.
func BenchmarkSolverWallFresh(b *testing.B) {
	pairs := solverWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolverWall(pairs, solverOpts(true))
	}
}

// BenchmarkSolverWallSession times the incremental session path.
func BenchmarkSolverWallSession(b *testing.B) {
	pairs := solverWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolverWall(pairs, solverOpts(false))
	}
}
