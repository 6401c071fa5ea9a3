package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// runner is one registered experiment driver; the title is its
// Outcome's.
type runner struct {
	id  string
	run func(*Context) (*Outcome, error)
}

var registry = []runner{
	{"table1", table1},
	{"table2", table2},
	{"table3", table3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8_12", fig8to12},
	{"ablation_grpo", ablationGRPO},
	{"ablation_verifier", ablationVerifier},
	{"passes", passesWorkload},
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
