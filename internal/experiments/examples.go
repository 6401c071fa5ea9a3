package experiments

import (
	"fmt"
	"strings"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
)

// curatedExample is one Fig. 8–12 style qualitative case.
type curatedExample struct {
	fig  string
	desc string
	src  string
}

// curated reproduces the shapes of the paper's Figures 8–12 (§V-E).
var curated = []curatedExample{
	{
		fig:  "Fig. 8",
		desc: "simplification to a constant (store-zero round trip)",
		src: `define i64 @get_d() {
  %1 = alloca i64
  store i64 0, ptr %1
  %2 = load i64, ptr %1
  ret i64 %2
}
`,
	},
	{
		fig:  "Fig. 9",
		desc: "removal of redundant allocas, stores and loads around a conditional call",
		src: `define i64 @f28(i64 noundef %0, i64 noundef %1) {
entry:
  %3 = alloca i64
  %4 = add i64 %0, %1
  store i64 %4, ptr %3
  %5 = icmp ugt i64 %4, %0
  br i1 %5, label %cont, label %docall

docall:
  call void @foo(i32 0)
  br label %cont

cont:
  %7 = load i64, ptr %3
  ret i64 %7
}
`,
	},
	{
		fig:  "Fig. 10",
		desc: "emergent simplifycfg-style folding of a guarded rescale",
		src: `define i32 @opt_u1(i32 noundef %0) {
entry:
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = icmp ult i32 %0, 10
  br i1 %3, label %small, label %big

small:
  br label %done

big:
  %6 = load i32, ptr %2
  %7 = add i32 %6, -12
  %8 = lshr i32 %7, 2
  %9 = add i32 %8, 3
  br label %done

done:
  %10 = phi i32 [ 0, %small ], [ %9, %big ]
  ret i32 %10
}
`,
	},
	{
		fig:  "Fig. 11",
		desc: "pattern the model may miss: trunc of a narrow shift (instcombine adds nuw nsw)",
		src: `define i32 @f8(i64 noundef %0) {
  %2 = lshr i64 %0, 61
  %3 = trunc i64 %2 to i32
  %4 = add i32 %3, 1
  ret i32 %4
}
`,
	},
	{
		fig:  "Fig. 12",
		desc: "full constant precalculation (instcombine computes the closed form)",
		src: `define i32 @aqua_baldo() {
  %1 = alloca i32
  store i32 -8, ptr %1
  %2 = load i32, ptr %1
  %3 = mul i32 %2, 20
  %4 = add i32 %3, 1
  ret i32 %4
}
`,
	},
}

// fig8to12 runs the curated inputs through Model-Latency and
// instcombine side by side, verifying every model output that passes
// alive.Candidate's gate through the context's oracle.
func fig8to12(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	nums := map[string]float64{}
	verified := 0
	for _, ex := range curated {
		f, err := ir.ParseFunc(ex.src)
		if err != nil {
			return nil, fmt.Errorf("curated example %s: %v", ex.fig, err)
		}
		ref := instcombine.Run(f)
		ep := res.Latency.Generate(f, policy.GenOptions{})
		fmt.Fprintf(&sb, "=== %s: %s\n", ex.fig, ex.desc)
		fmt.Fprintf(&sb, "--- input (-O0), latency %d:\n%s", costmodel.Latency(f), ir.CanonicalText(f))
		fmt.Fprintf(&sb, "--- instcombine, latency %d:\n%s", costmodel.Latency(ref), ir.CanonicalText(ref))
		out, v := alive.Candidate(ir.ParseFunc(ep.FinalText))
		if out == nil {
			fmt.Fprintf(&sb, "--- LLM-VeriOpt, verifier: %s (%s)\n%s\n", v.Verdict, v.Diag, ep.FinalText)
			continue
		}
		v = c.oracle.Verify(c.context(), f, out, alive.DefaultOptions())
		fmt.Fprintf(&sb, "--- LLM-VeriOpt, latency %d, verifier: %s\n%s\n",
			costmodel.Latency(out), v.Verdict, ir.CanonicalText(out))
		if v.Verdict == alive.Equivalent {
			verified++
		}
	}
	if err := c.context().Err(); err != nil {
		return nil, err
	}
	nums["curated_total"] = float64(len(curated))
	nums["curated_verified"] = float64(verified)
	return &Outcome{id: "fig8_12", title: "Figures 8-12: qualitative examples", text: sb.String(), numbers: nums}, nil
}
