package oracle

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
)

// forcedModel returns a policy whose greedy decode always takes the
// named action first: a rule of the model's vocabulary, or "stop".
func forcedModel(t *testing.T, action string) *policy.Model {
	t.Helper()
	m := policy.New(policy.CapQwen3B, 1)
	for a := 0; a < m.NumActions(); a++ {
		if m.ActionName(a) != action {
			continue
		}
		m.B[a] = 1e6
		return m
	}
	t.Fatalf("no action %q", action)
	return nil
}

// TestAcceptIsTheDeploymentRule: whatever produced the candidate — a
// caller's pass pipeline, instcombine, a model's decode — it comes back
// only under an Equivalent verdict; every other verdict hands back the
// input pointer itself, with the Result that says why.
func TestAcceptIsTheDeploymentRule(t *testing.T) {
	in := mustParse(t, srcText)
	verdicts := []alive.Result{
		{Verdict: alive.Equivalent},
		{Verdict: alive.SemanticError, Diag: "ERROR: Value mismatch", Counterexample: map[string]uint64{"%x": 1}},
		{Verdict: alive.SyntaxError, Diag: alive.DiagInvalidPrefix + "a verdict only a remote could send"},
		{Verdict: alive.Inconclusive, Diag: "ERROR: solver budget exhausted"},
		alive.CanceledResult(context.Canceled),
	}
	sources := []struct {
		name  string
		model *policy.Model
		cand  *ir.Function
	}{
		{"caller's candidate", nil, mustParse(t, tgtText)},
		{"instcombine", nil, nil},
		{"model decode", forcedModel(t, "stop"), nil},
	}
	for _, src := range sources {
		for _, want := range verdicts {
			var asked *ir.Function
			o := Func(func(ctx context.Context, s, tgt *ir.Function, opts alive.Options) alive.Result {
				if s != in || asked != nil {
					t.Errorf("%s: query on source %p after %p, want one query on the input", src.name, s, asked)
				}
				asked = tgt
				return want
			})
			out, res := Accept(bg, o, src.model, in, src.cand, alive.DefaultOptions())
			if res.Verdict != want.Verdict || res.Diag != want.Diag || res.Reason() != want.Reason() {
				t.Errorf("%s/%v: result %+v, want the oracle's %+v", src.name, want.Verdict, res, want)
			}
			switch {
			case asked == nil || asked == in:
				t.Errorf("%s/%v: oracle asked about %p", src.name, want.Verdict, asked)
			case src.cand != nil && asked != src.cand:
				t.Errorf("%s/%v: oracle asked about %p, not the caller's candidate", src.name, want.Verdict, asked)
			case want.Verdict == alive.Equivalent && out != asked:
				t.Errorf("%s: proven candidate not returned", src.name)
			case want.Verdict != alive.Equivalent && out != in:
				t.Errorf("%s/%v: out is not the input pointer", src.name, want.Verdict)
			}
		}
	}
}

// TestAcceptGatesModelOutput: a decode that does not parse, or parses
// into structurally invalid IR, is a syntax_error carrying
// alive.Candidate's diagnostic, keeps the input, and costs no query.
func TestAcceptGatesModelOutput(t *testing.T) {
	// With no "= add i32" to damage, corrupt-type-mismatch rewrites the
	// return type: the text parses, and returns an i32 from an i31
	// function.
	const mulText = `define i32 @f(i32 noundef %x) {
  %r = mul i32 %x, 1
  ret i32 %r
}`
	for _, tc := range []struct{ name, src, action, diag string }{
		{"unparsable", srcText, "corrupt-bad-mnemonic", alive.DiagParsePrefix + `line 2: unknown instruction "faddq"`},
		{"invalid", mulText, "corrupt-type-mismatch", alive.DiagInvalidPrefix},
	} {
		var queries atomic.Int64
		in := mustParse(t, tc.src)
		out, res := Accept(bg, countingBase(&queries), forcedModel(t, tc.action), in, nil, alive.DefaultOptions())
		if out != in {
			t.Errorf("%s: out is not the input pointer", tc.name)
		}
		if res.Verdict != alive.SyntaxError || !strings.HasPrefix(res.Diag, tc.diag) || len(res.Diag) == len(alive.DiagInvalidPrefix) {
			t.Errorf("%s: result %+v, want syntax_error with diag %q…", tc.name, res, tc.diag)
		}
		if queries.Load() != 0 {
			t.Errorf("%s: %d oracle queries for a candidate the gate rejected", tc.name, queries.Load())
		}
	}
}
