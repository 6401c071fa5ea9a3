package experiments

import (
	"fmt"
	"strings"

	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
)

// Outcome is one regenerated table or figure.
type Outcome struct {
	id    string
	title string
	// text is the rendered plain-text artifact.
	text string
	// numbers holds the headline measured values, keyed for
	// EXPERIMENTS.md comparison against the paper.
	numbers map[string]float64
}

func verdictTable(title string, rep *pipeline.Report) string {
	var sb strings.Builder
	total := float64(rep.Total())
	fmt.Fprintf(&sb, "%s (n=%d)\n", title, rep.Total())
	fmt.Fprintf(&sb, "%-38s %7s %10s\n", "Category", "Count", "Proportion")
	row := func(name string, n int) {
		fmt.Fprintf(&sb, "%-38s %7d %9.1f%%\n", name, n, 100*float64(n)/total)
	}
	row("Correct (verifier-proven equivalent)", rep.Correct)
	row("- Copy of input (no optimization)", rep.Copies)
	row("Semantic Error (not equivalent)", rep.Semantic)
	row("Syntax Error (invalid IR)", rep.Syntax)
	row("Inconclusive", rep.Inconclusive)
	fmt.Fprintf(&sb, "Different correct (the useful rate): %.1f%%\n", 100*rep.DifferentCorrectFrac())
	return sb.String()
}

// table1 reproduces Table I: verdict categories of the untrained base
// model under the generic one-shot prompt.
func table1(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	rep, err := c.report(res.Base, false)
	if err != nil {
		return nil, err
	}
	total := float64(rep.Total())
	return &Outcome{
		id:    "table1",
		title: "Table I: verification results of the baseline (untrained) model",
		text:  verdictTable("Baseline Qwen-3B analogue", rep),
		numbers: map[string]float64{
			"correct_pct":           100 * rep.CorrectFrac(),
			"copies_pct":            100 * float64(rep.Copies) / total,
			"semantic_pct":          100 * float64(rep.Semantic) / total,
			"syntax_pct":            100 * float64(rep.Syntax) / total,
			"inconclusive_pct":      100 * float64(rep.Inconclusive) / total,
			"different_correct_pct": 100 * rep.DifferentCorrectFrac(),
		},
	}, nil
}

// table2 reproduces Table II: verdicts of Model-Correctness and
// Model-Latency.
func table2(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	corr, err := c.report(res.Correctness, true)
	if err != nil {
		return nil, err
	}
	lat, err := c.report(res.Latency, false)
	if err != nil {
		return nil, err
	}
	text := verdictTable("Model-Correctness", corr) + "\n" + verdictTable("Model-Latency", lat)
	return &Outcome{
		id:    "table2",
		title: "Table II: verification results of the LLM-VeriOpt models",
		text:  text,
		numbers: map[string]float64{
			"correctness_correct_pct":      100 * corr.CorrectFrac(),
			"correctness_diff_correct_pct": 100 * corr.DifferentCorrectFrac(),
			"latency_correct_pct":          100 * lat.CorrectFrac(),
			"latency_diff_correct_pct":     100 * lat.DifferentCorrectFrac(),
			"latency_copies_pct":           100 * float64(lat.Copies) / float64(lat.Total()),
		},
	}, nil
}

// table3 reproduces Table III: per-sample outcomes vs -O0 for the
// three efficiency metrics across Model-Latency, Model-Correctness,
// and the base model.
func table3(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name      string
		m         *policy.Model
		augmented bool
	}{
		{"Latency-model", res.Latency, false},
		{"Correctness-model", res.Correctness, true},
		{"Base-model", res.Base, false},
	}
	var sb strings.Builder
	nums := map[string]float64{}
	fmt.Fprintf(&sb, "Per-sample outcome counts vs -O0 (smaller = better); mean relative change (negative = improvement)\n")
	fmt.Fprintf(&sb, "%-8s %-18s %7s %7s %7s %7s %10s\n", "Metric", "Model", "Better", "Worse", "Tie", "Total", "MeanΔ")
	for _, metric := range []pipeline.Metric{pipeline.MetricLatency, pipeline.MetricSize, pipeline.MetricICount} {
		for _, row := range rows {
			rep, err := c.report(row.m, row.augmented)
			if err != nil {
				return nil, err
			}
			o := pipeline.OutcomesVsO0(rep, metric)
			fmt.Fprintf(&sb, "%-8s %-18s %7d %7d %7d %7d %9.2f%%\n",
				metric, row.name, o.Better, o.Worse, o.Tie, rep.Total(), 100*o.MeanDelta)
			key := fmt.Sprintf("%s_%s_meandelta_pct", strings.ToLower(metric.String()), strings.ToLower(row.name))
			nums[key] = 100 * o.MeanDelta
		}
	}
	return &Outcome{
		id:      "table3",
		title:   "Table III: per-sample outcome counts vs LLVM -O0",
		text:    sb.String(),
		numbers: nums,
	}, nil
}
