package pipeline

import (
	"context"
	"fmt"
	"strings"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
	"veriopt/internal/seqopt"
)

// PassesConfig sizes the pass-sequence workload: one GRPO stage over
// sequence rollouts, then a four-way evaluation (fixed instcombine /
// greedy / beam / policy) on the validation split.
type PassesConfig struct {
	Seed int64
	// TrainSteps is the number of GRPO steps of the sequence policy.
	TrainSteps int
	// Workers bounds the evaluation fan-out (<= 0 selects
	// runtime.NumCPU()); results are worker-count independent.
	Workers int
	// Obs, when non-nil, receives stage trace events.
	Obs *obs.Recorder
}

// DefaultPassesConfig returns the reduced-scale defaults.
func DefaultPassesConfig() PassesConfig {
	return PassesConfig{Seed: 1, TrainSteps: 30}
}

// Method names of the evaluation rows, in report order.
const (
	MethodFixed  = "fixed-instcombine"
	methodGreedy = "greedy"
	MethodBeam   = "beam"
	methodPolicy = "policy"
)

// PassesReport is the four-way comparison table: one Report per
// method, in row order, each over the same samples and judged by the
// text workload's rule (judge), so every column is one of its
// aggregates.
type PassesReport struct {
	Methods []string
	Reports []*Report
}

// Method returns the report of the named method, or nil.
func (r *PassesReport) Method(name string) *Report {
	for i, m := range r.Methods {
		if m == name {
			return r.Reports[i]
		}
	}
	return nil
}

// String renders the pass-ordering table off each method's Report.
// Verified counts the outputs proved Equivalent or returned unchanged
// (Correct), Improved the strict latency wins over -O0, Fall the
// outputs rejected (the -O0 function kept), Degen the samples the
// latency geomean skipped for a zero latency, and SeqLen the mean
// length of the kept sequences (0 where the input was kept).
func (r *PassesReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pass-ordering evaluation (n=%d; geomean out/O0 ratios, lower is better)\n", len(r.Reports[0].results))
	fmt.Fprintf(&sb, "%-18s %9s %9s %9s %9s %9s %6s %5s %7s\n",
		"Method", "Latency", "ICount", "Size", "Verified", "Improved", "Fall", "Degen", "SeqLen")
	for i, rep := range r.Reports {
		lat, degen := ratio(rep, MetricLatency)
		seqLen := 0.0
		for _, res := range rep.evaluated() {
			seqLen += float64(len(res.seq))
		}
		if n := rep.Total(); n > 0 {
			seqLen /= float64(n)
		}
		fmt.Fprintf(&sb, "%-18s %9.4f %9.4f %9.4f %9d %9d %6d %5d %7.2f\n",
			r.Methods[i], lat, GeomeanRatio(rep, MetricICount), GeomeanRatio(rep, MetricSize),
			rep.Correct, OutcomesVsO0(rep, MetricLatency).Better, rep.Total()-rep.Correct, degen, seqLen)
	}
	return sb.String()
}

// PassesResult bundles the trained sequence policy and the evaluation
// report; the training trace goes to PassesConfig.Obs.
type PassesResult struct {
	Model  *seqopt.Model
	Report *PassesReport
}

// RunPassesCtx trains the sequence policy on the training split and
// evaluates the four methods on the validation split, every query
// asked of o (search memoization lives in its verdict cache).
// Cancellation follows the curriculum's convention: the interrupted
// phase aborts promptly and the partial result is returned with the
// context's error (Report nil when evaluation never completed).
func RunPassesCtx(ctx context.Context, o oracle.Oracle, train, val []*dataset.Sample, cfg PassesConfig) (*PassesResult, error) {
	res := &PassesResult{Model: seqopt.NewModel(cfg.Seed)}
	err := traceStage(cfg.Obs, o, "seq-train", func() (int, []float64, error) {
		tr := grpo.NewSequenceTrainer(o, res.Model, train, grpo.ComputeUMax(train), cfg.Workers, cfg.Seed+404)
		err := tr.TrainCtx(ctx, cfg.TrainSteps)
		return len(tr.RewardHistory), tr.RewardHistory, err
	})
	if err != nil {
		return res, err
	}
	err = traceStage(cfg.Obs, o, "passes-eval", func() (int, []float64, error) {
		var err error
		if res.Report, err = evaluatePasses(ctx, o, res.Model, val, cfg); err != nil {
			return 0, nil, err
		}
		return len(val), nil, nil
	})
	return res, err
}

// evaluatePasses runs the four-way comparison on samples. Every
// method's output goes through judge, the deployment rule of the text
// workload: a transformed function is kept only with an Equivalent
// verdict, otherwise the O0 metrics count. m may be nil to skip the
// policy row.
func evaluatePasses(ctx context.Context, o oracle.Oracle, m *seqopt.Model, samples []*dataset.Sample, cfg PassesConfig) (*PassesReport, error) {
	scfg := seqopt.SearchConfig{Oracle: o}
	rep := &PassesReport{Methods: []string{MethodFixed, methodGreedy, MethodBeam}}
	if m != nil {
		rep.Methods = append(rep.Methods, methodPolicy)
	}
	results := make([][]*sampleResult, len(rep.Methods))
	for j := range results {
		results[j] = make([]*sampleResult, len(samples))
	}
	err := par.For(ctx, cfg.Workers, len(samples), func(i int) {
		s := samples[i]
		keep := func(method int, seq []string, fn *ir.Function) {
			res := judge(ctx, o, s, fn, alive.Result{}, alive.DefaultOptions())
			if !res.usedFallback {
				res.fn, res.seq = fn, seq
			}
			results[method][i] = res
		}
		keep(0, []string{"instcombine"}, instcombine.Run(s.O0))
		if gr, err := seqopt.Greedy(ctx, s.O0, scfg); err == nil {
			keep(1, gr.Sequence, gr.Fn)
		}
		if br, err := seqopt.Beam(ctx, s.O0, scfg); err == nil {
			keep(2, br.Sequence, br.Fn)
		}
		if m != nil {
			ep := m.Generate(s.O0, nil) // greedy decode
			keep(3, ep.Sequence, ep.FinalFn)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		rep.Reports = append(rep.Reports, tally(r))
	}
	return rep, nil
}
