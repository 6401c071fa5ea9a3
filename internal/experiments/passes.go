package experiments

import (
	"fmt"
	"strings"

	"veriopt/internal/pipeline"
)

// passesWorkload runs the pass-ordering workload: train the sequence policy
// on the training split, then compare fixed instcombine, greedy
// search, beam search, and the trained policy on the validation
// split. The headline numbers are the geomean latency ratios vs -O0
// (lower is better) and the beam-vs-fixed gap, the workload's
// acceptance criterion.
func passesWorkload(c *Context) (*Outcome, error) {
	train, err := c.Train()
	if err != nil {
		return nil, err
	}
	val, err := c.Val()
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultPassesConfig()
	cfg.Seed = c.Cfg.Seed
	cfg.Workers = c.Cfg.Workers
	cfg.Oracle = c.Oracle
	cfg.Obs = c.Obs
	c.progress("training sequence policy (%d steps) and evaluating pass orderings...", cfg.TrainSteps)
	res, err := pipeline.RunPassesCtx(c.context(), train, val, cfg)
	if err != nil {
		return nil, err
	}
	rep := res.Report

	var sb strings.Builder
	sb.WriteString(rep.String())
	fmt.Fprintf(&sb, "\nAll %d outputs verifier-gated; fallbacks substitute the -O0 metrics.\n", rep.Samples()*len(rep.Rows))

	numbers := map[string]float64{}
	for _, row := range rep.Rows {
		numbers["geomean_latency_"+row.Method] = row.GeoLatency
		numbers["improved_frac_"+row.Method] = float64(row.Improved) / float64(rep.Samples())
	}
	if fixed, beam := rep.Row(pipeline.MethodFixed), rep.Row(pipeline.MethodBeam); fixed != nil && beam != nil {
		numbers["beam_vs_fixed_latency_gain"] = fixed.GeoLatency / beam.GeoLatency
	}
	return &Outcome{id: "passes", title: "Pass-ordering workload: policy vs search vs fixed pipeline", text: sb.String(), numbers: numbers}, nil
}
