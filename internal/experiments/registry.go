package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// runner is one registered experiment driver.
type runner struct {
	id    string
	title string
	run   func(*Context) (*Outcome, error)
}

var registry = []runner{
	{"table1", "Table I: baseline model verdicts", table1},
	{"table2", "Table II: LLM-VeriOpt model verdicts", table2},
	{"table3", "Table III: outcomes vs -O0", table3},
	{"fig4", "Figure 4: training dynamics", fig4},
	{"fig5", "Figure 5: baseline comparison", fig5},
	{"fig6", "Figure 6: vs instcombine", fig6},
	{"fig7", "Figure 7: curriculum ablation", fig7},
	{"fig8_12", "Figures 8-12: qualitative examples", fig8to12},
	{"ablation_grpo", "Ablation: GRPO design choices", ablationGRPO},
	{"ablation_verifier", "Ablation: verifier placement", ablationVerifier},
	{"passes", "Pass-ordering workload: policy vs search vs fixed pipeline", passesWorkload},
}

// IDs lists the registered experiment identifiers in run order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Run executes one experiment by id against the shared context.
func Run(id string, c *Context) (*Outcome, error) {
	for _, r := range registry {
		if r.id == id {
			return r.run(c)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// Render formats an outcome for terminal output, including the
// measured headline numbers in stable order.
func Render(o *Outcome) string {
	var sb strings.Builder
	bar := strings.Repeat("=", len(o.title))
	fmt.Fprintf(&sb, "%s\n%s\n%s\n", bar, o.title, bar)
	sb.WriteString(o.text)
	if len(o.numbers) > 0 {
		sb.WriteString("\nmeasured numbers:\n")
		keys := make([]string, 0, len(o.numbers))
		for k := range o.numbers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %-40s %.3f\n", k, o.numbers[k])
		}
	}
	return sb.String()
}
