package alive_test

// What bounds symbolic execution now that states merge at joins
// (ROADMAP 8(a), the executor's share): MaxPaths counts edges taken, so
// a ladder of diamonds no longer reaches it; MaxSteps still stops a
// loop; arms that made different numbers of calls stay apart; and a
// context that ends mid-execution still ends the verification.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
)

func mustParse(t testing.TB, text string) *ir.Function {
	t.Helper()
	m, err := ir.Parse(text)
	if err != nil || ir.VerifyFunc(m.Funcs[0]) != nil {
		t.Fatalf("%v, %v\n%s", err, ir.VerifyFunc(m.Funcs[0]), text)
	}
	return m.Funcs[0]
}

// ladderFns returns a ladder of rungs diamonds, each choosing between
// an add and an xor of the running value on one bit of %x (rungs
// alternate icmp ne and icmp eq, so half the selectors are negations),
// and its if-converted form: the same arithmetic, a select per rung.
// The xor constant of rung bump is one higher in the second.
func ladderFns(t *testing.T, rungs, bump int) (branchy, selects *ir.Function) {
	var br, sel strings.Builder
	br.WriteString("define i32 @ladder(i32 noundef %x, i32 noundef %y) {\nentry:\n  br label %j0\nj0:\n  %v0 = add i32 %y, 0\n")
	sel.WriteString("define i32 @ladder(i32 noundef %x, i32 noundef %y) {\n  %v0 = add i32 %y, 0\n")
	for i := 1; i <= rungs; i++ {
		pred := []string{"ne", "eq"}[i%2]
		cond := fmt.Sprintf("  %%m%d = and i32 %%x, %d\n  %%c%d = icmp %s i32 %%m%d, 0\n", i, 1<<uint(i), i, pred, i)
		arms := [2]string{fmt.Sprintf("  %%u%d = add i32 %%v%d, %d\n", i, i-1, i), fmt.Sprintf("  %%w%d = xor i32 %%v%d, %%K%d\n", i, i-1, i)}
		fmt.Fprintf(&br, "%s  br i1 %%c%d, label %%t%d, label %%f%d\nt%d:\n%s  br label %%j%d\nf%d:\n%s  br label %%j%d\nj%d:\n  %%v%d = phi i32 [ %%u%d, %%t%d ], [ %%w%d, %%f%d ]\n",
			cond, i, i, i, i, arms[0], i, i, arms[1], i, i, i, i, i, i, i)
		fmt.Fprintf(&sel, "%s%s%s  %%v%d = select i1 %%c%d, i32 %%u%d, i32 %%w%d\n", cond, arms[0], arms[1], i, i, i, i)
	}
	tail := fmt.Sprintf("  ret i32 %%v%d\n}\n", rungs)
	consts := func(text string, bump int) string {
		for i := 1; i <= rungs; i++ {
			k := 3 * i
			if i == bump {
				k++
			}
			text = strings.Replace(text, fmt.Sprintf("%%K%d\n", i), fmt.Sprintf("%d\n", k), 1)
		}
		return text
	}
	return mustParse(t, consts(br.String()+tail, 0)), mustParse(t, consts(sel.String()+tail, bump))
}

// countedLoop adds %x to itself trips times, one block per part of the
// loop.
func countedLoop(t *testing.T, trips int) *ir.Function {
	return mustParse(t, fmt.Sprintf(`define i32 @loop(i32 noundef %%x) {
entry:
  br label %%head
head:
  %%i = phi i32 [ 0, %%entry ], [ %%i1, %%body ]
  %%acc = phi i32 [ 0, %%entry ], [ %%acc1, %%body ]
  %%c = icmp ult i32 %%i, %d
  br i1 %%c, label %%body, label %%out
body:
  %%acc1 = add i32 %%acc, %%x
  %%i1 = add i32 %%i, 1
  br label %%head
out:
  ret i32 %%acc
}`, trips))
}

// stopAfter is a context whose Err turns Canceled after it has been
// asked a given number of times: the executor polls it as it runs.
type stopAfter struct {
	context.Context
	polls int
}

func (c *stopAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

func TestExecutorBounds(t *testing.T) {
	opts := alive.DefaultOptions()

	// Twelve rungs are 4 096 paths: past MaxPaths for an executor that
	// forks, 49 edges (four a rung and the entry's) for one that merges.
	branchy, selects := ladderFns(t, 12, 0)
	res, _, counts := alive.VerifyRuleHits(branchy, selects, opts, nil)
	if res.Verdict != alive.Equivalent || res.SolverConflicts != 0 {
		t.Errorf("12-rung ladder against its if-converted form: %v, %d conflicts (%s)", res.Verdict, res.SolverConflicts, res.Diag)
	}
	if counts[0].Paths != 49 || counts[0].Merges != 12 {
		t.Errorf("12-rung ladder: %+v, want 49 paths and 12 merges", counts[0])
	}
	if forking := alive.VerifyForking(context.Background(), branchy, selects, opts, nil); forking.Reason() != alive.PathLimit {
		t.Errorf("the forking reference on the 12-rung ladder: %v (%s), want the path budget", forking.Verdict, forking.Diag)
	}
	_, mutant := ladderFns(t, 12, 7)
	if res := alive.VerifyFuncs(branchy, mutant, opts); res.Verdict != alive.SemanticError || !refinetest.Witness(t, branchy, mutant, res.Counterexample) {
		t.Errorf("12-rung ladder against a one-rung mutant: %v, counterexample %v (%s)", res.Verdict, res.Counterexample, res.Diag)
	}

	// A loop is still unrolled, and stops at MaxSteps: the budget that
	// is exactly enough for 40 trips is one trip short for 41.
	_, _, counts = alive.VerifyRuleHits(countedLoop(t, 40), countedLoop(t, 40), opts, nil)
	tight := opts
	tight.MaxSteps = counts[0].Steps
	if res := alive.VerifyFuncs(countedLoop(t, 40), countedLoop(t, 40), tight); res.Verdict != alive.Equivalent {
		t.Errorf("40 trips in %d steps: %v (%s)", tight.MaxSteps, res.Verdict, res.Diag)
	}
	if res := alive.VerifyFuncs(countedLoop(t, 41), countedLoop(t, 41), tight); res.Reason() != alive.StepLimit {
		t.Errorf("41 trips in %d steps: %v (%s), want the step budget", tight.MaxSteps, res.Verdict, res.Diag)
	}

	// Arms that made one call and two are not merged (the join's ret
	// runs once for each: 9 steps, not 8), and their traces still match a
	// target that hoists the first call; a target whose second call
	// passes something else does not.
	calls := shapePairs(t)[2]
	if calls.name != "calls" {
		t.Fatalf("shapePairs()[2] is %s", calls.name)
	}
	res, _, counts = alive.VerifyRuleHits(calls.src, calls.tgt, opts, nil)
	if res.Verdict != alive.Equivalent || counts[0].Merges != 0 || counts[0].Steps != 9 {
		t.Errorf("arms with one call and two: %v, %+v (%s), want equivalent, 0 merges, 9 steps", res.Verdict, counts[0], res.Diag)
	}
	wrong := mustParse(t, strings.Replace(ir.FuncString(calls.tgt), "@obs(i8 %v)", "@obs(i8 %b)", 1))
	if res := alive.VerifyFuncs(calls.src, wrong, opts); res.Verdict != alive.SemanticError || !strings.Contains(res.Diag, "call to @obs (occurrence 2)") {
		t.Errorf("second call passes %%b: %v (%s)", res.Verdict, res.Diag)
	}

	// A context that ends while the source is being executed.
	long := chainFn(t, 400, false, 0)
	for _, polls := range []int{1, 2, 4} {
		res := alive.VerifyFuncsCtx(&stopAfter{context.Background(), polls}, long, long, opts)
		if res.Reason() != alive.Canceled {
			t.Errorf("context ended after %d polls: %v, reason %q (%s)", polls, res.Verdict, res.Reason(), res.Diag)
		}
	}
}
