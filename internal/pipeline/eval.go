// Package pipeline wires the paper's training curriculum (Model Zero
// → Warm-up → Model-Correctness → Model-Latency, Fig. 3) and the
// evaluation harness behind Tables I–III and Figures 4–7.
package pipeline

import (
	"context"
	"math"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
	"veriopt/internal/policy"
)

// SampleResult is one evaluated function.
type SampleResult struct {
	Sample  *dataset.Sample
	Verdict alive.Verdict
	Diag    string
	// Canceled marks a sample whose verification was cut short by the
	// run's context ending (the judge returned a Canceled verdict).
	// The slot is kept — Sample, Base, and the fallback Out are valid
	// — but the sample was not genuinely evaluated: it is counted in
	// Report.Skipped, not Inconclusive, and excluded from Total() and
	// every aggregate metric.
	Canceled bool
	Copied   bool
	// FinalFn is the model's output when verified; nil otherwise.
	FinalFn *ir.Function
	// Out is the effective metrics after the paper's fallback rule:
	// unverified outputs fall back to the -O0 version.
	Out costmodel.Metrics
	// Base is the -O0 metrics; Ref the instcombine metrics.
	Base, Ref costmodel.Metrics
	// UsedFallback reports that Out == Base because verification failed.
	UsedFallback bool
}

// Report aggregates an evaluation run, mirroring the verdict
// categories of Tables I/II.
type Report struct {
	// Results holds one entry per sample. Entries are nil for samples
	// never evaluated because the run was canceled; entries with
	// Canceled set were reached but their verification was cut short
	// mid-flight. Both kinds are excluded from every tally and
	// aggregate metric and counted in Skipped.
	Results []*SampleResult

	Correct      int
	Copies       int // subset of Correct
	Semantic     int
	Syntax       int
	Inconclusive int
	// Skipped counts the samples a canceled run never reached (nil
	// Results slots) plus the samples whose in-flight verification
	// came back Canceled (slots with Canceled set). A complete run
	// has Skipped == 0, so CorrectFrac/DifferentCorrectFrac are
	// always fractions over genuinely evaluated samples.
	Skipped int
}

// Total returns the number of evaluated samples (skipped samples of a
// canceled run are not evaluated).
func (r *Report) Total() int { return len(r.Results) - r.Skipped }

// evaluated returns the genuinely evaluated samples in sample order:
// unreached slots (nil) and verifications cut short (Canceled) are
// left out of every tally and aggregate.
func (r *Report) evaluated() []*SampleResult {
	out := make([]*SampleResult, 0, len(r.Results))
	for _, res := range r.Results {
		if res != nil && !res.Canceled {
			out = append(out, res)
		}
	}
	return out
}

// DifferentCorrectFrac is the paper's headline metric: verified
// outputs that actually differ from the input.
func (r *Report) DifferentCorrectFrac() float64 {
	if r.Total() == 0 {
		return 0
	}
	return float64(r.Correct-r.Copies) / float64(r.Total())
}

// CorrectFrac returns the Alive2-verified fraction.
func (r *Report) CorrectFrac() float64 {
	if r.Total() == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total())
}

// EvalConfig parameterizes an evaluation run.
type EvalConfig struct {
	// Verify bounds each verification query; the zero value selects
	// alive.DefaultOptions().
	Verify alive.Options
	// Workers bounds the per-sample fan-out (<= 0 selects
	// runtime.NumCPU()). Greedy generation is deterministic per
	// sample, so the report is byte-identical at any worker count.
	Workers int
	// Oracle answers the verification queries; nil selects the shared
	// default stack (oracle.Default).
	Oracle oracle.Oracle
}

// EvaluateCtx runs the model greedily (deterministic, §IV-B) over the
// samples, verifying each output and applying the fallback rule. Each
// sample is independent (greedy generation reads only immutable model
// state), so the fan-out is embarrassingly parallel; results land in
// per-sample slots and the verdict tallies are summed sequentially
// afterwards, keeping the report identical at any worker count.
//
// When ctx ends mid-run, EvaluateCtx returns promptly with a partial
// report — evaluated samples keep their results, unreached samples
// stay nil in Results, and samples whose in-flight verification came
// back Canceled keep their slot with Canceled set — plus the
// context's error. Both unreached and canceled samples are counted in
// Skipped, never in Inconclusive, so a partial report's fractions are
// over genuinely evaluated samples only.
func EvaluateCtx(ctx context.Context, m *policy.Model, samples []*dataset.Sample, augmented bool, cfg EvalConfig) (*Report, error) {
	if cfg.Verify == (alive.Options{}) {
		cfg.Verify = alive.DefaultOptions()
	}
	o := oracle.OrDefault(cfg.Oracle)
	rep := &Report{Results: make([]*SampleResult, len(samples))}
	err := par.For(ctx, cfg.Workers, len(samples), func(i int) {
		s := samples[i]
		ep := m.Generate(s.O0, policy.GenOptions{Augmented: augmented})
		j := grpo.JudgeWith(ctx, o, ep, s, cfg.Verify)
		res := &SampleResult{
			Sample:   s,
			Verdict:  j.FinalVerdict.Verdict,
			Diag:     j.FinalVerdict.Diag,
			Canceled: j.FinalVerdict.Reason() == alive.Canceled,
			Copied:   ep.Copied,
			Base:     costmodel.Measure(s.O0),
			Ref:      costmodel.Measure(s.Ref),
		}
		if res.Verdict == alive.Equivalent {
			res.FinalFn = j.FinalFn
			res.Out = costmodel.Measure(j.FinalFn)
		}
		if res.FinalFn == nil {
			res.Out = res.Base
			res.UsedFallback = true
		}
		rep.Results[i] = res
	})
	// Unreached, or verification cut short mid-flight: the sample was
	// never genuinely evaluated, so it must not land in Inconclusive
	// (that would deflate the fractions of a partial report).
	done := rep.evaluated()
	rep.Skipped = len(rep.Results) - len(done)
	for _, res := range done {
		switch res.Verdict {
		case alive.Equivalent:
			rep.Correct++
			if res.Copied {
				rep.Copies++
			}
		case alive.SemanticError:
			rep.Semantic++
		case alive.SyntaxError:
			rep.Syntax++
		case alive.Inconclusive:
			rep.Inconclusive++
		}
	}
	return rep, err
}

// Metric selects one of the paper's three efficiency metrics.
type Metric int

// The efficiency metrics of §IV-C.
const (
	MetricLatency Metric = iota
	MetricSize
	MetricICount
)

var metricNames = [...]string{"Latency", "Size", "ICount"}

// String returns the metric's display name.
func (m Metric) String() string { return metricNames[m] }

func metricOf(ms costmodel.Metrics, m Metric) int {
	switch m {
	case MetricLatency:
		return ms.Latency
	case MetricSize:
		return ms.Size
	default:
		return ms.ICount
	}
}

// Outcomes is a Better/Worse/Tie row of Table III.
type Outcomes struct {
	Better, Worse, Tie int
	// MeanDelta is the mean relative change vs the baseline
	// (negative = improvement), as in Table III's last column. It
	// averages over the samples with a positive baseline metric (the
	// only ones where a relative change is defined).
	MeanDelta float64
}

// outcomes counts the model's effective output (with fallback)
// against baseline's metric per sample, and averages the relative
// change over the samples with a positive baseline metric.
func outcomes(rep *Report, m Metric, baseline func(*SampleResult) costmodel.Metrics) Outcomes {
	var o Outcomes
	sum, n := 0.0, 0
	for _, r := range rep.evaluated() {
		base := metricOf(baseline(r), m)
		out := metricOf(r.Out, m)
		switch {
		case out < base:
			o.Better++
		case out > base:
			o.Worse++
		default:
			o.Tie++
		}
		if base > 0 {
			sum += float64(out-base) / float64(base)
			n++
		}
	}
	// Divide by the number of summed terms, not len(Results): a
	// skipped zero-baseline sample must not drag the mean toward zero.
	if n > 0 {
		o.MeanDelta = sum / float64(n)
	}
	return o
}

// geomean returns the geometric mean of num/den over the samples where
// both are positive, 1 when there are none. Logs are added in sample
// order.
func geomean(rep *Report, num, den func(*SampleResult) int) float64 {
	logSum := 0.0
	n := 0
	for _, r := range rep.evaluated() {
		a, b := num(r), den(r)
		if a <= 0 || b <= 0 {
			continue
		}
		logSum += math.Log(float64(a) / float64(b))
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// OutcomesVsO0 computes a Table III row: the model's effective output
// (with fallback) against the -O0 baseline.
func OutcomesVsO0(rep *Report, m Metric) Outcomes {
	return outcomes(rep, m, func(r *SampleResult) costmodel.Metrics { return r.Base })
}

// VsInstCombine compares the model's effective output against the
// instcombine reference per function — Fig. 6(c).
func VsInstCombine(rep *Report, m Metric) Outcomes {
	return outcomes(rep, m, func(r *SampleResult) costmodel.Metrics { return r.Ref })
}

// GeomeanRatio returns the geometric mean of out/base for the metric
// (< 1 = improvement), the Fig. 5/7 aggregation.
func GeomeanRatio(rep *Report, m Metric) float64 {
	return geomean(rep,
		func(r *SampleResult) int { return metricOf(r.Out, m) },
		func(r *SampleResult) int { return metricOf(r.Base, m) })
}

// GeomeanSpeedup returns the geometric-mean latency speedup vs -O0
// (the paper's 2.30× headline form).
func GeomeanSpeedup(rep *Report) float64 {
	return 1 / GeomeanRatio(rep, MetricLatency)
}

// RefGeomeanSpeedup returns instcombine's geomean speedup on the same
// samples (the 2.39× comparison point).
func RefGeomeanSpeedup(rep *Report) float64 {
	return geomean(rep,
		func(r *SampleResult) int { return r.Base.Latency },
		func(r *SampleResult) int { return r.Ref.Latency })
}

// HybridGeomeanGain computes the paper's fallback-hybrid gain: taking
// the model's output only where it beats instcombine, the geomean
// improvement over instcombine alone (latency 17%, icount 13.9%, size
// 2.1% in the paper).
func HybridGeomeanGain(rep *Report, m Metric) float64 {
	return geomean(rep,
		func(r *SampleResult) int { return metricOf(r.Ref, m) },
		func(r *SampleResult) int { return min(metricOf(r.Ref, m), metricOf(r.Out, m)) })
}
