package pipeline

import (
	"context"
	"fmt"
	"math"
	"strings"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
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
	// TrainSteps is the number of SeqTrainer GRPO steps, each under
	// grpo.DefaultSeqConfig().
	TrainSteps int
	// BeamWidth and BeamDepth size the beam baseline (<= 0 selects the
	// seqopt defaults). Greedy shares BeamDepth.
	BeamWidth, BeamDepth int
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

// passesOutput is one method's accepted output on one sample.
type passesOutput struct {
	method string
	// sequence is the applied pass list (empty = output is the input).
	sequence []string
	// fn is the accepted output function. Acceptance is verifier-gated:
	// Fn differs from the sample's O0 only when the oracle proved
	// equivalence. On a rejected output Fn is the O0 function itself
	// and Fallback is set.
	fn *ir.Function
	// verified reports the oracle proved Fn equivalent to the input
	// (identity outputs are trivially verified).
	verified bool
	// fallback reports the method's raw output was rejected and the
	// O0 metrics were substituted.
	fallback bool
	metrics  costmodel.Metrics
}

// passesDetail is the per-sample evaluation record.
type passesDetail struct {
	sample  *dataset.Sample
	base    costmodel.Metrics
	outputs []passesOutput // one per method, in report order
}

// PassesRow aggregates one method over the evaluation split.
type PassesRow struct {
	Method string
	// Geomean out/base ratios per metric (< 1 is better than -O0).
	GeoLatency, geoICount, geoSize float64
	// verified counts oracle-proven outputs, Improved strict latency
	// wins, Fallbacks rejected outputs.
	verified, Improved, fallbacks int
	// degenerate counts samples excluded from the geomeans because a
	// metric was zero on either side of the ratio (empty-body or
	// size-0 edge cases): log(0) and log(x/0) would otherwise fold
	// ±Inf into the row and NaN every geomean.
	degenerate int
	meanSeqLen float64
}

// PassesReport is the four-way comparison table.
type PassesReport struct {
	Rows    []PassesRow
	details []*passesDetail
}

// Samples is the evaluation-split size.
func (r *PassesReport) Samples() int { return len(r.details) }

// Row returns the aggregate for a method name, or nil.
func (r *PassesReport) Row(method string) *PassesRow {
	for i := range r.Rows {
		if r.Rows[i].Method == method {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the pass-ordering table.
func (r *PassesReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pass-ordering evaluation (n=%d; geomean out/O0 ratios, lower is better)\n", r.Samples())
	fmt.Fprintf(&sb, "%-18s %9s %9s %9s %9s %9s %6s %5s %7s\n",
		"Method", "Latency", "ICount", "Size", "Verified", "Improved", "Fall", "Degen", "SeqLen")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-18s %9.4f %9.4f %9.4f %9d %9d %6d %5d %7.2f\n",
			row.Method, row.GeoLatency, row.geoICount, row.geoSize,
			row.verified, row.Improved, row.fallbacks, row.degenerate, row.meanSeqLen)
	}
	return sb.String()
}

// PassesResult bundles the trained sequence policy, its training
// trace, and the evaluation report.
type PassesResult struct {
	Model   *seqopt.Model
	history []float64
	Report  *PassesReport
}

// RunPassesCtx trains the sequence policy on the training split and
// evaluates the four methods on the validation split, every query
// asked of o (search memoization lives in its verdict cache).
// Cancellation follows the curriculum's convention: the interrupted
// phase aborts promptly and the partial result is returned with the
// context's error (Report nil when evaluation never completed).
func RunPassesCtx(ctx context.Context, o oracle.Oracle, train, val []*dataset.Sample, cfg PassesConfig) (*PassesResult, error) {
	seq := grpo.DefaultSeqConfig()
	seq.Workers = cfg.Workers
	seq.Latency = grpo.LatencyRewardParams{UMax: grpo.ComputeUMax(train, umaxPercentile), Gamma: latencyGamma}

	res := &PassesResult{Model: seqopt.NewModel(cfg.Seed)}
	err := traceStage(cfg.Obs, o, "seq-train", func() (int, []float64, error) {
		tr := grpo.NewSeqTrainer(o, res.Model, train, seq, cfg.Seed+404)
		_, err := tr.TrainCtx(ctx, cfg.TrainSteps)
		res.history = tr.RewardHistory
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
// non-identity output is verifier-gated: a method's transformed
// function is accepted only with an Equivalent verdict, otherwise the
// O0 metrics are substituted (the fallback rule of the text
// workload). m may be nil to skip the policy row.
func evaluatePasses(ctx context.Context, o oracle.Oracle, m *seqopt.Model, samples []*dataset.Sample, cfg PassesConfig) (*PassesReport, error) {
	scfg := seqopt.SearchConfig{Width: cfg.BeamWidth, Depth: cfg.BeamDepth, Oracle: o}

	details := make([]*passesDetail, len(samples))
	err := par.For(ctx, cfg.Workers, len(samples), func(i int) {
		s := samples[i]
		d := &passesDetail{sample: s, base: costmodel.Measure(s.O0)}

		// Every non-identity output goes through the deployment rule:
		// oracle.Accept hands back O0 itself on anything short of a proof.
		accept := func(method string, seq []string, fn *ir.Function) passesOutput {
			if fn == s.O0 || len(seq) == 0 {
				return passesOutput{method: method, fn: s.O0, verified: true, metrics: d.base}
			}
			if out, _ := oracle.Accept(ctx, o, nil, s.O0, fn, alive.DefaultOptions()); out == s.O0 {
				return passesOutput{method: method, fn: s.O0, fallback: true, metrics: d.base}
			}
			return passesOutput{method: method, sequence: seq, fn: fn, verified: true, metrics: costmodel.Measure(fn)}
		}

		d.outputs = append(d.outputs, accept(MethodFixed, []string{"instcombine"}, instcombine.Run(s.O0)))
		if gr, err := seqopt.Greedy(ctx, s.O0, scfg); err == nil {
			d.outputs = append(d.outputs, accept(methodGreedy, gr.Sequence, gr.Fn))
		}
		if br, err := seqopt.Beam(ctx, s.O0, scfg); err == nil {
			d.outputs = append(d.outputs, accept(MethodBeam, br.Sequence, br.Fn))
		}
		if m != nil {
			ep := m.Generate(s.O0, seqopt.GenOptions{}) // greedy decode
			d.outputs = append(d.outputs, accept(methodPolicy, ep.Sequence, ep.FinalFn))
		}
		details[i] = d
	})
	if err != nil {
		return nil, err
	}

	rep := &PassesReport{details: details}
	methods := []string{MethodFixed, methodGreedy, MethodBeam}
	if m != nil {
		methods = append(methods, methodPolicy)
	}
	for _, method := range methods {
		rep.Rows = append(rep.Rows, aggregatePasses(method, details))
	}
	return rep, nil
}

// aggregatePasses folds one method's per-sample outputs into a report
// row. A sample with a zero Latency/ICount/Size on either side of the
// out/base ratio is degenerate — log of 0 or division by 0 would turn
// the whole geomean into NaN — so it is skipped from the geomean
// accumulation and counted in Degenerate instead. Counters
// (Verified/Improved/Fallbacks/MeanSeqLen) still cover every sample.
func aggregatePasses(method string, details []*passesDetail) PassesRow {
	row := PassesRow{Method: method, GeoLatency: 1, geoICount: 1, geoSize: 1}
	logL, logI, logS := 0.0, 0.0, 0.0
	n, nGeo := 0, 0
	for _, d := range details {
		var out *passesOutput
		for j := range d.outputs {
			if d.outputs[j].method == method {
				out = &d.outputs[j]
			}
		}
		if out == nil {
			continue
		}
		n++
		if degenerateMetrics(out.metrics) || degenerateMetrics(d.base) {
			row.degenerate++
		} else {
			nGeo++
			logL += math.Log(float64(out.metrics.Latency) / float64(d.base.Latency))
			logI += math.Log(float64(out.metrics.ICount) / float64(d.base.ICount))
			logS += math.Log(float64(out.metrics.Size) / float64(d.base.Size))
		}
		if out.verified {
			row.verified++
		}
		if out.fallback {
			row.fallbacks++
		}
		if out.metrics.Latency < d.base.Latency {
			row.Improved++
		}
		row.meanSeqLen += float64(len(out.sequence))
	}
	if nGeo > 0 {
		row.GeoLatency = math.Exp(logL / float64(nGeo))
		row.geoICount = math.Exp(logI / float64(nGeo))
		row.geoSize = math.Exp(logS / float64(nGeo))
	}
	if n > 0 {
		row.meanSeqLen /= float64(n)
	}
	return row
}

// degenerateMetrics reports a metric vector that cannot participate
// in a log-space ratio.
func degenerateMetrics(m costmodel.Metrics) bool {
	return m.Latency <= 0 || m.ICount <= 0 || m.Size <= 0
}
