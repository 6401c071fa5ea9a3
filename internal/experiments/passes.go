package experiments

import (
	"fmt"

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
	cfg.Obs = c.Obs
	c.progress("training sequence policy (%d steps) and evaluating pass orderings...", cfg.TrainSteps)
	res, err := pipeline.RunPassesCtx(c.context(), c.oracle, train, val, cfg)
	if err != nil {
		return nil, err
	}
	rep := res.Report

	outputs := 0
	numbers := map[string]float64{}
	for i, method := range rep.Methods {
		r := rep.Reports[i]
		outputs += r.Total()
		numbers["geomean_latency_"+method] = pipeline.GeomeanRatio(r, pipeline.MetricLatency)
		numbers["improved_frac_"+method] = float64(pipeline.OutcomesVsO0(r, pipeline.MetricLatency).Better) / float64(r.Total())
	}
	if fixed, beam := rep.Method(pipeline.MethodFixed), rep.Method(pipeline.MethodBeam); fixed != nil && beam != nil {
		numbers["beam_vs_fixed_latency_gain"] = pipeline.GeomeanRatio(fixed, pipeline.MetricLatency) / pipeline.GeomeanRatio(beam, pipeline.MetricLatency)
	}
	text := fmt.Sprintf("%s\nAll %d outputs verifier-gated; fallbacks substitute the -O0 metrics.\n", rep, outputs)
	return &Outcome{id: "passes", title: "Pass-ordering workload: policy vs search vs fixed pipeline", text: text, numbers: numbers}, nil
}
