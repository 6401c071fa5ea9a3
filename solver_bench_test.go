package veriopt

// Solver-wall benchmark: the cold-cache verification workload run
// through the incremental session, isolating the live SAT cost the
// verdict cache cannot hide. BenchmarkSolverWallSession times it;
// TestSolverWallBench logs one run.

import (
	"sync"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

type verifyPair struct{ src, tgt *ir.Function }

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
			solverPairs = append(solverPairs, verifyPair{s.O0, s.Ref})
			if broken := perturbConst(s.Ref); broken != nil {
				solverPairs = append(solverPairs, verifyPair{s.O0, broken})
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
// total SAT conflicts and the wall-clock spent.
func runSolverWall(pairs []verifyPair, opts alive.Options) (int, time.Duration) {
	conflicts := 0
	t0 := time.Now()
	for _, p := range pairs {
		conflicts += alive.VerifyFuncs(p.src, p.tgt, opts).SolverConflicts
	}
	return conflicts, time.Since(t0)
}

// TestSolverWallBench runs the session over the workload and logs its
// wall and conflict count; nothing timed is asserted, since tier-1 must
// not fail on a loaded machine. Verdict parity with the fresh solver per
// query, the path builds before the session took, is
// internal/alive's TestSessionMatchesFreshSolver (the fresh solver is a
// test reference there).
func TestSolverWallBench(t *testing.T) {
	pairs := solverWorkload(t)
	if len(pairs) < 32 {
		t.Fatalf("workload: %d pairs, want the 32 samples and their mutants", len(pairs))
	}
	conflicts, wall := runSolverWall(pairs, alive.DefaultOptions())
	t.Logf("workload: %d pairs", len(pairs))
	t.Logf("session: %v wall, %d conflicts", wall, conflicts)
}

// BenchmarkSolverWallSession times the incremental session path.
func BenchmarkSolverWallSession(b *testing.B) {
	pairs := solverWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolverWall(pairs, alive.DefaultOptions())
	}
}
