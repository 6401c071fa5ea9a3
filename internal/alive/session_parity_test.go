package alive

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
)

// TestSessionMatchesFreshSolver pins the acceptance criterion of the
// incremental solver session: across random function/mutant pairs the
// session path must return the same verdict as the
// fresh-solver-per-query reference (VerifyFresh), and every
// counterexample either path produces must concretely distinguish the
// pair under the interpreter. Counterexample models need not be
// bit-identical between the paths — SAT models depend on search
// history — but both must be real.
func TestSessionMatchesFreshSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	verdicts := map[Verdict]int{}
	for iter := 0; iter < 80; iter++ {
		src := buildRandomFn(rng)
		var tgt *ir.Function
		if rng.Intn(3) == 0 {
			tgt = ir.CloneFunc(src) // identical pair: exercises Equivalent
		} else {
			tgt = mutate(src, rng)
		}
		if err := ir.VerifyFunc(tgt); err != nil {
			continue
		}
		opts := propOptions()
		rs := VerifyFuncs(src, tgt, opts)
		rf := VerifyFresh(context.Background(), src, tgt, opts, false)
		if rs.Verdict != rf.Verdict {
			t.Fatalf("iteration %d: session=%v fresh=%v\nsrc:\n%s\ntgt:\n%s\nsession diag: %s\nfresh diag: %s",
				iter, rs.Verdict, rf.Verdict, ir.FuncString(src), ir.FuncString(tgt), rs.Diag, rf.Diag)
		}
		verdicts[rs.Verdict]++
		if rs.Verdict != SemanticError {
			continue
		}
		for name, res := range map[string]Result{"session": rs, "fresh": rf} {
			if !refinetest.Witness(t, src, tgt, res.Counterexample) {
				t.Fatalf("iteration %d: %s counterexample %v does not distinguish:\nsrc:\n%s\ntgt:\n%s\ndiag: %s",
					iter, name, res.Counterexample, ir.FuncString(src), ir.FuncString(tgt), res.Diag)
			}
		}
	}
	if verdicts[Equivalent] < 10 || verdicts[SemanticError] < 8 {
		t.Errorf("verdict mix too thin to claim parity: %v", verdicts)
	}
}

// TestSessionVerifyDeterministicAndRaceFree runs the same verification
// workload from several goroutines and requires bit-identical results:
// the session path must be deterministic (vcache memoizes on it) and
// free of shared mutable state (this test runs under -race in tier 2).
func TestSessionVerifyDeterministicAndRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A low budget keeps this fast; Inconclusive-by-budget verdicts
	// must be just as deterministic as proofs.
	opts := propOptions()
	opts.SolverBudget = 3000
	type pair struct{ src, tgt *ir.Function }
	var pairs []pair
	for len(pairs) < 12 {
		src := buildRandomFn(rng)
		tgt := mutate(src, rng)
		if err := ir.VerifyFunc(tgt); err != nil {
			continue
		}
		pairs = append(pairs, pair{src, tgt})
	}
	const runs = 3
	results := make([][]Result, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]Result, len(pairs))
			for i, p := range pairs {
				out[i] = VerifyFuncs(p.src, p.tgt, opts)
			}
			results[r] = out
		}(r)
	}
	wg.Wait()
	for r := 1; r < runs; r++ {
		for i := range pairs {
			a, b := results[0][i], results[r][i]
			if a.Verdict != b.Verdict || a.Diag != b.Diag || a.SolverConflicts != b.SolverConflicts {
				t.Fatalf("pair %d run %d: %+v vs %+v", i, r, a, b)
			}
			if len(a.Counterexample) != len(b.Counterexample) {
				t.Fatalf("pair %d run %d: counterexample sizes differ", i, r)
			}
			for k, v := range a.Counterexample {
				if b.Counterexample[k] != v {
					t.Fatalf("pair %d run %d: counterexample[%s] = %d vs %d", i, r, k, v, b.Counterexample[k])
				}
			}
		}
	}
}

// TestVerifyReportsSolverConflicts pins the satellite bugfix: a
// verification that does real solver work must report a non-zero
// SolverConflicts on both the Equivalent and SemanticError paths
// (before this fix the field was always 0).
func TestVerifyReportsSolverConflicts(t *testing.T) {
	// A pair whose equivalence needs actual search: distributivity,
	// x*(y+1) vs x*y + x. Neither the builder's local identities nor
	// gate-level hash-consing fold this, so the proof costs conflicts.
	src, err := ir.ParseFunc(`define i8 @f(i8 noundef %x, i8 noundef %y) {
  %a = add i8 %y, 1
  %r = mul i8 %x, %a
  ret i8 %r
}`)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ir.ParseFunc(`define i8 @f(i8 noundef %x, i8 noundef %y) {
  %a = mul i8 %x, %y
  %r = add i8 %a, %x
  ret i8 %r
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, fresh := range []bool{false, true} {
		res := VerifyFuncs(src, tgt, DefaultOptions())
		if fresh {
			res = VerifyFresh(context.Background(), src, tgt, DefaultOptions(), false)
		}
		if res.Verdict != Equivalent {
			t.Fatalf("fresh=%v: verdict %v, want Equivalent (%s)", fresh, res.Verdict, res.Diag)
		}
		if res.SolverConflicts == 0 {
			t.Errorf("fresh=%v: SolverConflicts = 0 for a multiplier proof; accounting is broken", fresh)
		}
	}
}
