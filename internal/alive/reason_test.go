package alive_test

import (
	"context"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// distributes is x*(y+z) against x*y+x*z at 6 bits: equivalent, and
// beyond one conflict for either query solver.
func distributes(t *testing.T) (src, tgt *ir.Function) {
	return mustParse(t, "define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %s = add i6 %y, %z\n  %r = mul i6 %x, %s\n  ret i6 %r\n}\n"),
		mustParse(t, "define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %a = mul i6 %x, %y\n  %b = mul i6 %x, %z\n  %r = add i6 %a, %b\n  ret i6 %r\n}\n")
}

// TestInconclusiveDiags pins the bytes of every Inconclusive diag, one
// row per source of one, through both executors and both query solvers,
// and the reason Result.Reason reads off each. Eq. 2 BLEU-scores the
// diag and vstore persists it, so these bytes do not move; this is the
// one test that spells a diag's reason out as text.
func TestInconclusiveDiags(t *testing.T) {
	opts := alive.DefaultOptions()
	branchy, selects := ladderFns(t, 12, 0)
	_, _, counts := alive.VerifyRuleHits(countedLoop(t, 40), countedLoop(t, 40), opts)
	tight := opts
	tight.MaxSteps = counts[0].Steps
	mulSrc, mulTgt := distributes(t)
	starved := opts
	starved.SolverBudget = 1
	void := mustParse(t, "define i32 @f(void %x) {\n  ret i32 0\n}\n")
	done, cancel := context.WithCancel(context.Background())
	cancel()

	verifiers := []struct {
		name string
		run  func(context.Context, *ir.Function, *ir.Function, alive.Options) alive.Result
	}{
		{"VerifyFuncsCtx", alive.VerifyFuncsCtx},
		{"VerifyForking", alive.VerifyForking},
		{"VerifyFresh", func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			return alive.VerifyFresh(ctx, src, tgt, opts, false)
		}},
		{"VerifyFresh/forking", func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			return alive.VerifyFresh(ctx, src, tgt, opts, true)
		}},
	}
	for _, c := range []struct {
		name     string
		src, tgt *ir.Function
		opts     alive.Options
		// ctx is the verification's context; nil is one that ends at
		// its last poll, which is in refinement, before the last query.
		ctx context.Context
		// forkingOnly: only the forking executor reaches the limit; the
		// merging one answers Equivalent.
		forkingOnly bool
		diag        string
		reason      alive.Reason
	}{
		{"path limit", branchy, selects, opts, context.Background(), true,
			"ERROR: resource limit: path budget exhausted", alive.PathLimit},
		{"step limit", countedLoop(t, 41), countedLoop(t, 41), tight, context.Background(), false,
			"ERROR: resource limit: step budget exhausted (loop too deep?)", alive.StepLimit},
		{"conflict budget", mulSrc, mulTgt, starved, context.Background(), false,
			"ERROR: solver budget exhausted (Value mismatch check)", alive.ConflictBudget},
		{"unsupported", void, void, opts, context.Background(), false,
			"ERROR: unsupported: type void in value position", alive.Unsupported},
		{"canceled before", mulSrc, mulTgt, opts, done, false,
			"ERROR: verification canceled: context canceled", alive.Canceled},
		{"canceled mid-query", mulSrc, mulTgt, starved, nil, false,
			"ERROR: verification canceled: context canceled", alive.Canceled},
	} {
		for _, v := range verifiers {
			ctx := c.ctx
			if ctx == nil {
				count := &stopAfter{context.Background(), 1 << 30}
				v.run(count, c.src, c.tgt, c.opts)
				ctx = &stopAfter{context.Background(), 1<<30 - count.polls - 1}
			}
			res := v.run(ctx, c.src, c.tgt, c.opts)
			if c.forkingOnly && (v.name == "VerifyFuncsCtx" || v.name == "VerifyFresh") {
				if res.Verdict != alive.Equivalent || res.Diag != "" || res.Reason() != alive.NoReason {
					t.Errorf("%s, %s: %v (%q, reason %q), want equivalent", c.name, v.name, res.Verdict, res.Diag, res.Reason())
				}
				continue
			}
			if res.Verdict != alive.Inconclusive || res.Diag != c.diag || res.Reason() != c.reason {
				t.Errorf("%s, %s: %v (%q, reason %q), want inconclusive (%q, reason %q)", c.name, v.name, res.Verdict, res.Diag, res.Reason(), c.diag, c.reason)
			}
		}
	}
}
