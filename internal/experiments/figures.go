package experiments

import (
	"fmt"
	"math"
	"strings"

	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
)

// sparkline renders a float series as a compact text chart.
func sparkline(series []float64, width int) string {
	if len(series) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	step := float64(len(series)) / float64(width)
	if step < 1 {
		step = 1
	}
	var sb strings.Builder
	for i := 0.0; int(i) < len(series); i += step {
		v := series[int(i)]
		idx := int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// ema smooths a series with the paper's 0.95 exponential moving
// average (Fig. 4 presentation).
func ema(series []float64) []float64 {
	const alpha = 0.95
	out := make([]float64, len(series))
	if len(series) == 0 {
		return out
	}
	acc := series[0]
	for i, v := range series {
		acc = alpha*acc + (1-alpha)*v
		out[i] = acc
	}
	return out
}

func renderSeries(name string, raw []float64) string {
	smooth := ema(raw)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d steps)\n", name, len(raw))
	fmt.Fprintf(&sb, "  raw: %s\n", sparkline(raw, 60))
	fmt.Fprintf(&sb, "  ema: %s\n", sparkline(smooth, 60))
	if len(raw) > 0 {
		fmt.Fprintf(&sb, "  first=%.3f last(ema)=%.3f max=%.3f\n", raw[0], smooth[len(smooth)-1], maxOf(raw))
	}
	return sb.String()
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// fig4 reproduces Figure 4: GRPO training dynamics under the
// correctness-stage and latency-stage rewards, with the paper's
// EMA(0.95) smoothing.
func fig4(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	text := renderSeries("(a) correctness-oriented stage reward", res.CorrectnessHistory) +
		renderSeries("(b) latency-oriented stage reward", res.LatencyHistory)
	corrE := ema(res.CorrectnessHistory)
	latE := ema(res.LatencyHistory)
	nums := map[string]float64{}
	if len(corrE) > 0 {
		nums["correctness_reward_first"] = res.CorrectnessHistory[0]
		nums["correctness_reward_last_ema"] = corrE[len(corrE)-1]
	}
	if len(latE) > 0 {
		nums["latency_reward_first"] = res.LatencyHistory[0]
		nums["latency_reward_last_ema"] = latE[len(latE)-1]
	}
	return &Outcome{id: "fig4", title: "Figure 4: GRPO training dynamics", text: text, numbers: nums}, nil
}

// fig5 reproduces Figure 5: LLM-VeriOpt against SFT baselines of
// increasing size and the LLM-Compiler analogue, on all four axes.
func fig5(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	bl, err := c.baselines()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	nums := map[string]float64{}
	fmt.Fprintf(&sb, "%-22s %7s %10s %12s %10s %10s\n",
		"Model", "Params", "Correct%", "LatSpeedup", "ICount", "BinSize")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 76))
	type row struct {
		name   string
		params float64
		rep    *pipeline.Report
	}
	var rows []row
	for _, b := range bl {
		rep, err := c.report(b.model, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{b.name, b.params, rep})
	}
	ours, err := c.report(res.Latency, false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"LLM-VeriOpt-3B (ours)", 3, ours})
	for _, r := range rows {
		sp := pipeline.GeomeanSpeedup(r.rep)
		ic := pipeline.GeomeanRatio(r.rep, pipeline.MetricICount)
		bs := pipeline.GeomeanRatio(r.rep, pipeline.MetricSize)
		fmt.Fprintf(&sb, "%-22s %6.1fB %9.1f%% %11.2fx %10.3f %10.3f\n",
			r.name, r.params, 100*r.rep.CorrectFrac(), sp, ic, bs)
		key := strings.ToLower(strings.ReplaceAll(r.name, " ", "_"))
		nums[key+"_correct_pct"] = 100 * r.rep.CorrectFrac()
		nums[key+"_speedup"] = sp
	}
	sb.WriteString("\n(ICount/BinSize are geomean ratios vs -O0; lower is better. Latency speedup: higher is better.)\n")
	return &Outcome{id: "fig5", title: "Figure 5: comparison against LLM-based compiler baselines", text: sb.String(), numbers: nums}, nil
}

// fig6 reproduces Figure 6: pairwise distributions of Model-Latency
// against -O0 and against instcombine, plus the hybrid-fallback gain.
func fig6(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	rep, err := c.report(res.Latency, false)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	nums := map[string]float64{}
	total := float64(rep.Total())

	fmt.Fprintf(&sb, "(a/b) geomean improvements vs -O0:\n")
	sp := pipeline.GeomeanSpeedup(rep)
	refSp := pipeline.RefGeomeanSpeedup(rep)
	fmt.Fprintf(&sb, "  LLM-VeriOpt latency speedup: %.2fx   instcombine: %.2fx\n\n", sp, refSp)
	nums["veriopt_speedup"] = sp
	nums["instcombine_speedup"] = refSp

	fmt.Fprintf(&sb, "(c) pairwise vs instcombine:\n")
	fmt.Fprintf(&sb, "%-8s %9s %9s %9s\n", "Metric", "Better", "Worse", "Tie")
	for _, metric := range []pipeline.Metric{pipeline.MetricLatency, pipeline.MetricICount, pipeline.MetricSize} {
		o := pipeline.VsInstCombine(rep, metric)
		fmt.Fprintf(&sb, "%-8s %8.1f%% %8.1f%% %8.1f%%\n", metric,
			100*float64(o.Better)/total, 100*float64(o.Worse)/total, 100*float64(o.Tie)/total)
		key := strings.ToLower(metric.String())
		nums[key+"_better_pct"] = 100 * float64(o.Better) / total
		nums[key+"_worse_pct"] = 100 * float64(o.Worse) / total
		nums[key+"_tie_pct"] = 100 * float64(o.Tie) / total
	}
	fmt.Fprintf(&sb, "\nHybrid fallback (take VeriOpt only where it beats instcombine), geomean gain over instcombine alone:\n")
	for _, metric := range []pipeline.Metric{pipeline.MetricLatency, pipeline.MetricICount, pipeline.MetricSize} {
		g := pipeline.HybridGeomeanGain(rep, metric)
		fmt.Fprintf(&sb, "  %-8s +%.1f%%\n", metric, 100*(g-1))
		nums["hybrid_"+strings.ToLower(metric.String())+"_gain_pct"] = 100 * (g - 1)
	}
	return &Outcome{id: "fig6", title: "Figure 6: pairwise distributions vs baselines", text: sb.String(), numbers: nums}, nil
}

// fig7 reproduces Figure 7: the ablation over the four curriculum
// models.
func fig7(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	type stageRow struct {
		name string
		rep  *pipeline.Report
	}
	plan := []struct {
		name      string
		m         *policy.Model
		augmented bool
	}{
		{"Model Zero", res.ModelZero, false},
		{"Warm-up", res.WarmUp, true},
		{"Model-Correctness", res.Correctness, true},
		{"Model-Latency", res.Latency, false},
	}
	var stages []stageRow
	for _, p := range plan {
		rep, err := c.report(p.m, p.augmented)
		if err != nil {
			return nil, err
		}
		stages = append(stages, stageRow{p.name, rep})
	}
	var sb strings.Builder
	nums := map[string]float64{}
	fmt.Fprintf(&sb, "%-20s %10s %10s %10s %10s\n", "Stage", "Speedup", "ICount", "BinSize", "Correct%")
	for _, st := range stages {
		sp := pipeline.GeomeanSpeedup(st.rep)
		ic := 1 / pipeline.GeomeanRatio(st.rep, pipeline.MetricICount)
		bs := 1 / pipeline.GeomeanRatio(st.rep, pipeline.MetricSize)
		fmt.Fprintf(&sb, "%-20s %9.2fx %9.2fx %9.2fx %9.1f%%\n", st.name, sp, ic, bs, 100*st.rep.CorrectFrac())
		key := strings.ToLower(strings.ReplaceAll(st.name, " ", "_"))
		key = strings.ReplaceAll(key, "-", "_")
		nums[key+"_speedup"] = sp
		nums[key+"_correct_pct"] = 100 * st.rep.CorrectFrac()
	}
	sb.WriteString("(Speedup/ICount/BinSize are geomean improvements vs -O0, higher is better.)\n")
	return &Outcome{id: "fig7", title: "Figure 7: ablation across the curriculum stages", text: sb.String(), numbers: nums}, nil
}
