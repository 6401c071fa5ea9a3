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
	// Oracle answers all verification queries; nil selects the shared
	// default stack. Search memoization lives in its verdict cache.
	Oracle oracle.Oracle
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
	MethodGreedy = "greedy"
	MethodBeam   = "beam"
	MethodPolicy = "policy"
)

// PassesOutput is one method's accepted output on one sample.
type PassesOutput struct {
	Method string
	// Sequence is the applied pass list (empty = output is the input).
	Sequence []string
	// Fn is the accepted output function. Acceptance is verifier-gated:
	// Fn differs from the sample's O0 only when the oracle proved
	// equivalence. On a rejected output Fn is the O0 function itself
	// and Fallback is set.
	Fn *ir.Function
	// Verified reports the oracle proved Fn equivalent to the input
	// (identity outputs are trivially verified).
	Verified bool
	// Fallback reports the method's raw output was rejected and the
	// O0 metrics were substituted.
	Fallback bool
	Metrics  costmodel.Metrics
}

// PassesDetail is the per-sample evaluation record.
type PassesDetail struct {
	Sample  *dataset.Sample
	Base    costmodel.Metrics
	Outputs []PassesOutput // one per method, in report order
}

// PassesRow aggregates one method over the evaluation split.
type PassesRow struct {
	Method string
	// Geomean out/base ratios per metric (< 1 is better than -O0).
	GeoLatency, GeoICount, GeoSize float64
	// Verified counts oracle-proven outputs, Improved strict latency
	// wins, Fallbacks rejected outputs.
	Verified, Improved, Fallbacks int
	// Degenerate counts samples excluded from the geomeans because a
	// metric was zero on either side of the ratio (empty-body or
	// size-0 edge cases): log(0) and log(x/0) would otherwise fold
	// ±Inf into the row and NaN every geomean.
	Degenerate int
	MeanSeqLen float64
}

// PassesReport is the four-way comparison table.
type PassesReport struct {
	Rows    []PassesRow
	Details []*PassesDetail
}

// Samples is the evaluation-split size.
func (r *PassesReport) Samples() int { return len(r.Details) }

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
			row.Method, row.GeoLatency, row.GeoICount, row.GeoSize,
			row.Verified, row.Improved, row.Fallbacks, row.Degenerate, row.MeanSeqLen)
	}
	return sb.String()
}

// PassesResult bundles the trained sequence policy, its training
// trace, and the evaluation report.
type PassesResult struct {
	Model   *seqopt.Model
	History []float64
	Report  *PassesReport
}

// RunPassesCtx trains the sequence policy on the training split and
// evaluates the four methods on the validation split. Cancellation
// follows the curriculum's convention: the interrupted phase aborts
// promptly and the partial result is returned with the context's
// error (Report nil when evaluation never completed).
func RunPassesCtx(ctx context.Context, train, val []*dataset.Sample, cfg PassesConfig) (*PassesResult, error) {
	seq := grpo.DefaultSeqConfig()
	seq.Workers = cfg.Workers
	seq.Latency = grpo.LatencyRewardParams{UMax: grpo.ComputeUMax(train, umaxPercentile), Gamma: latencyGamma}
	o := oracle.OrDefault(cfg.Oracle)

	res := &PassesResult{Model: seqopt.NewModel(cfg.Seed)}
	sp := beginStage(cfg.Obs, o, "seq-train")
	tr := grpo.NewSeqTrainer(res.Model, train, seq, cfg.Seed+404)
	tr.Oracle = o
	_, err := tr.TrainCtx(ctx, cfg.TrainSteps)
	res.History = tr.RewardHistory
	if err != nil {
		sp.end(len(tr.RewardHistory), tr.RewardHistory, "canceled")
		return res, err
	}
	sp.end(cfg.TrainSteps, tr.RewardHistory, "")

	sp = beginStage(cfg.Obs, o, "passes-eval")
	rep, err := evaluatePasses(ctx, res.Model, val, cfg)
	res.Report = rep
	if err != nil {
		sp.end(0, nil, "canceled")
		return res, err
	}
	sp.end(len(val), nil, "")
	return res, nil
}

// evaluatePasses runs the four-way comparison on samples. Every
// non-identity output is verifier-gated: a method's transformed
// function is accepted only with an Equivalent verdict, otherwise the
// O0 metrics are substituted (the fallback rule of the text
// workload). m may be nil to skip the policy row.
func evaluatePasses(ctx context.Context, m *seqopt.Model, samples []*dataset.Sample, cfg PassesConfig) (*PassesReport, error) {
	o := oracle.OrDefault(cfg.Oracle)
	scfg := seqopt.SearchConfig{Width: cfg.BeamWidth, Depth: cfg.BeamDepth, Oracle: o}

	details := make([]*PassesDetail, len(samples))
	err := par.For(ctx, cfg.Workers, len(samples), func(i int) {
		s := samples[i]
		d := &PassesDetail{Sample: s, Base: costmodel.Measure(s.O0)}

		// Every non-identity output goes through the deployment rule:
		// oracle.Accept hands back O0 itself on anything short of a proof.
		accept := func(method string, seq []string, fn *ir.Function) PassesOutput {
			if fn == s.O0 || len(seq) == 0 {
				return PassesOutput{Method: method, Fn: s.O0, Verified: true, Metrics: d.Base}
			}
			if out, _ := oracle.Accept(ctx, o, nil, s.O0, fn, alive.DefaultOptions()); out == s.O0 {
				return PassesOutput{Method: method, Fn: s.O0, Fallback: true, Metrics: d.Base}
			}
			return PassesOutput{Method: method, Sequence: seq, Fn: fn, Verified: true, Metrics: costmodel.Measure(fn)}
		}

		d.Outputs = append(d.Outputs, accept(MethodFixed, []string{"instcombine"}, instcombine.Run(s.O0)))
		if gr, err := seqopt.Greedy(ctx, s.O0, scfg); err == nil {
			d.Outputs = append(d.Outputs, accept(MethodGreedy, gr.Sequence, gr.Fn))
		}
		if br, err := seqopt.Beam(ctx, s.O0, scfg); err == nil {
			d.Outputs = append(d.Outputs, accept(MethodBeam, br.Sequence, br.Fn))
		}
		if m != nil {
			ep := m.Generate(s.O0, seqopt.GenOptions{}) // greedy decode
			d.Outputs = append(d.Outputs, accept(MethodPolicy, ep.Sequence, ep.FinalFn))
		}
		details[i] = d
	})
	if err != nil {
		return nil, err
	}

	rep := &PassesReport{Details: details}
	methods := []string{MethodFixed, MethodGreedy, MethodBeam}
	if m != nil {
		methods = append(methods, MethodPolicy)
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
func aggregatePasses(method string, details []*PassesDetail) PassesRow {
	row := PassesRow{Method: method, GeoLatency: 1, GeoICount: 1, GeoSize: 1}
	logL, logI, logS := 0.0, 0.0, 0.0
	n, nGeo := 0, 0
	for _, d := range details {
		var out *PassesOutput
		for j := range d.Outputs {
			if d.Outputs[j].Method == method {
				out = &d.Outputs[j]
			}
		}
		if out == nil {
			continue
		}
		n++
		if degenerateMetrics(out.Metrics) || degenerateMetrics(d.Base) {
			row.Degenerate++
		} else {
			nGeo++
			logL += math.Log(float64(out.Metrics.Latency) / float64(d.Base.Latency))
			logI += math.Log(float64(out.Metrics.ICount) / float64(d.Base.ICount))
			logS += math.Log(float64(out.Metrics.Size) / float64(d.Base.Size))
		}
		if out.Verified {
			row.Verified++
		}
		if out.Fallback {
			row.Fallbacks++
		}
		if out.Metrics.Latency < d.Base.Latency {
			row.Improved++
		}
		row.MeanSeqLen += float64(len(out.Sequence))
	}
	if nGeo > 0 {
		row.GeoLatency = math.Exp(logL / float64(nGeo))
		row.GeoICount = math.Exp(logI / float64(nGeo))
		row.GeoSize = math.Exp(logS / float64(nGeo))
	}
	if n > 0 {
		row.MeanSeqLen /= float64(n)
	}
	return row
}

// degenerateMetrics reports a metric vector that cannot participate
// in a log-space ratio.
func degenerateMetrics(m costmodel.Metrics) bool {
	return m.Latency <= 0 || m.ICount <= 0 || m.Size <= 0
}
