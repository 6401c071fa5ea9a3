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
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
	"veriopt/internal/policy"
)

// sampleResult is one evaluated function.
type sampleResult struct {
	sample  *dataset.Sample
	verdict alive.Verdict
	diag    string
	// canceled marks a sample whose verification was cut short by the
	// run's context ending (the judge returned a Canceled verdict).
	// The slot is kept — sample, base, and the fallback out are valid
	// — but the sample was not genuinely evaluated: it is counted in
	// Report.Skipped, not Inconclusive, and excluded from Total() and
	// every aggregate metric.
	canceled bool
	// copied marks an Equivalent output whose text is its input's;
	// EvaluateCtx leaves it false on every other verdict.
	copied bool
	// out is the effective metrics after the paper's fallback rule:
	// unverified outputs fall back to the -O0 version.
	out costmodel.Metrics
	// base is the -O0 metrics; ref the instcombine metrics.
	base, ref costmodel.Metrics
	// usedFallback reports that out == base because oracle.Accept
	// kept the input.
	usedFallback bool
	// fn and seq are, in the pass workload, the kept output and the
	// pass sequence that produced it (nil where a rejected output fell
	// back to the input).
	fn  *ir.Function
	seq []string
}

// Report aggregates an evaluation run, mirroring the verdict
// categories of Tables I/II.
type Report struct {
	// results holds one entry per sample. Entries are nil for samples
	// never evaluated because the run was canceled; entries with
	// canceled set were reached but their verification was cut short
	// mid-flight. Both kinds are excluded from every tally and
	// aggregate metric and counted in Skipped.
	results []*sampleResult

	Correct      int
	Copies       int // subset of Correct
	Semantic     int
	Syntax       int
	Inconclusive int
	// Skipped counts the samples a canceled run never reached (nil
	// results slots) plus the samples whose in-flight verification
	// came back Canceled (slots with canceled set). A complete run
	// has Skipped == 0, so CorrectFrac/DifferentCorrectFrac are
	// always fractions over genuinely evaluated samples.
	Skipped int
}

// Total returns the number of evaluated samples (skipped samples of a
// canceled run are not evaluated).
func (r *Report) Total() int { return len(r.results) - r.Skipped }

// evaluated returns the genuinely evaluated samples in sample order:
// unreached slots (nil) and verifications cut short (Canceled) are
// left out of every tally and aggregate.
func (r *Report) evaluated() []*sampleResult {
	out := make([]*sampleResult, 0, len(r.results))
	for _, res := range r.results {
		if res != nil && !res.canceled {
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
}

// EvaluateCtx runs the model greedily (deterministic, §IV-B) over the
// samples and puts each output through the deployment rule,
// oracle.Accept over o: one query per sample, none for an output the
// syntax gate rejects, and the -O0 input kept on anything short of a
// proof (the fallback rule). Each sample is independent (greedy
// generation reads only immutable model state), so the fan-out is
// embarrassingly parallel; results land in per-sample slots and the
// verdict tallies are summed sequentially afterwards, keeping the
// report identical at any worker count.
//
// When ctx ends mid-run, EvaluateCtx returns promptly with a partial
// report — evaluated samples keep their results, unreached samples
// stay nil in results, and samples whose in-flight verification came
// back Canceled keep their slot with Canceled set — plus the
// context's error. Both unreached and canceled samples are counted in
// Skipped, never in Inconclusive, so a partial report's fractions are
// over genuinely evaluated samples only.
func EvaluateCtx(ctx context.Context, o oracle.Oracle, m *policy.Model, samples []*dataset.Sample, augmented bool, cfg EvalConfig) (*Report, error) {
	if cfg.Verify == (alive.Options{}) {
		cfg.Verify = alive.DefaultOptions()
	}
	results := make([]*sampleResult, len(samples))
	err := par.For(ctx, cfg.Workers, len(samples), func(i int) {
		s := samples[i]
		ep := m.Generate(s.O0, policy.GenOptions{Augmented: augmented})
		cand, vr := alive.Candidate(ir.ParseFunc(ep.FinalText))
		res := judge(ctx, o, s, cand, vr, cfg.Verify)
		// Only an Equivalent output counts as a copy (see tally).
		if res.verdict == alive.Equivalent {
			res.copied = ir.FingerprintText(ep.FinalText) == ir.CanonicalKey(s.O0)
		}
		results[i] = res
	})
	return tally(results), err
}

// judge puts one output through the deployment rule against s.O0,
// oracle.Accept over o, and measures what is kept. A nil cand is an
// output the syntax gate rejected, for the reason vr gives; cand ==
// s.O0 (a method that returned its input) is kept with no query.
// Both workloads judge every output here.
func judge(ctx context.Context, o oracle.Oracle, s *dataset.Sample, cand *ir.Function, vr alive.Result, opts alive.Options) *sampleResult {
	out := s.O0
	switch {
	case cand == s.O0:
		vr = alive.Result{Verdict: alive.Equivalent}
	case cand != nil:
		out, vr = oracle.Accept(ctx, o, nil, s.O0, cand, opts)
	}
	res := &sampleResult{
		sample:       s,
		verdict:      vr.Verdict,
		diag:         vr.Diag,
		canceled:     vr.Reason() == alive.Canceled,
		base:         costmodel.Measure(s.O0),
		ref:          costmodel.Measure(s.Ref),
		usedFallback: out == s.O0 && cand != s.O0,
	}
	res.out = res.base
	if out != s.O0 {
		res.out = costmodel.Measure(out)
	}
	return res
}

// tally counts the verdicts of one run's results (one slot per
// sample, in sample order). Unreached slots (nil) and verifications
// cut short mid-flight were never genuinely evaluated, so they are
// counted in Skipped, not Inconclusive (that would deflate the
// fractions of a partial report).
func tally(results []*sampleResult) *Report {
	rep := &Report{results: results}
	done := rep.evaluated()
	rep.Skipped = len(results) - len(done)
	for _, res := range done {
		switch res.verdict {
		case alive.Equivalent:
			rep.Correct++
			if res.copied {
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
	return rep
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
func outcomes(rep *Report, m Metric, baseline func(*sampleResult) costmodel.Metrics) Outcomes {
	var o Outcomes
	sum, n := 0.0, 0
	for _, r := range rep.evaluated() {
		base := metricOf(baseline(r), m)
		out := metricOf(r.out, m)
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
	// Divide by the number of summed terms, not len(results): a
	// skipped zero-baseline sample must not drag the mean toward zero.
	if n > 0 {
		o.MeanDelta = sum / float64(n)
	}
	return o
}

// geomean returns the geometric mean of num/den over the samples where
// both are positive, 1 when there are none, and the number of samples
// it skipped. Logs are added in sample order. The rule is per ratio: a
// sample with a zero on one metric still counts on the others.
func geomean(rep *Report, num, den func(*sampleResult) int) (g float64, skipped int) {
	logSum := 0.0
	n := 0
	for _, r := range rep.evaluated() {
		a, b := num(r), den(r)
		if a <= 0 || b <= 0 {
			skipped++
			continue
		}
		logSum += math.Log(float64(a) / float64(b))
		n++
	}
	if n == 0 {
		return 1, skipped
	}
	return math.Exp(logSum / float64(n)), skipped
}

// OutcomesVsO0 computes a Table III row: the model's effective output
// (with fallback) against the -O0 baseline.
func OutcomesVsO0(rep *Report, m Metric) Outcomes {
	return outcomes(rep, m, func(r *sampleResult) costmodel.Metrics { return r.base })
}

// VsInstCombine compares the model's effective output against the
// instcombine reference per function — Fig. 6(c).
func VsInstCombine(rep *Report, m Metric) Outcomes {
	return outcomes(rep, m, func(r *sampleResult) costmodel.Metrics { return r.ref })
}

// GeomeanRatio returns the geometric mean of out/base for the metric
// (< 1 = improvement), the Fig. 5/7 aggregation.
func GeomeanRatio(rep *Report, m Metric) float64 {
	g, _ := ratio(rep, m)
	return g
}

// ratio is GeomeanRatio with the number of samples it skipped for a
// zero metric on either side.
func ratio(rep *Report, m Metric) (float64, int) {
	return geomean(rep,
		func(r *sampleResult) int { return metricOf(r.out, m) },
		func(r *sampleResult) int { return metricOf(r.base, m) })
}

// GeomeanSpeedup returns the geometric-mean latency speedup vs -O0
// (the paper's 2.30× headline form).
func GeomeanSpeedup(rep *Report) float64 {
	return 1 / GeomeanRatio(rep, MetricLatency)
}

// RefGeomeanSpeedup returns instcombine's geomean speedup on the same
// samples (the 2.39× comparison point).
func RefGeomeanSpeedup(rep *Report) float64 {
	g, _ := geomean(rep,
		func(r *sampleResult) int { return r.base.Latency },
		func(r *sampleResult) int { return r.ref.Latency })
	return g
}

// HybridGeomeanGain computes the paper's fallback-hybrid gain: taking
// the model's output only where it beats instcombine, the geomean
// improvement over instcombine alone (latency 17%, icount 13.9%, size
// 2.1% in the paper).
func HybridGeomeanGain(rep *Report, m Metric) float64 {
	g, _ := geomean(rep,
		func(r *sampleResult) int { return metricOf(r.ref, m) },
		func(r *sampleResult) int { return min(metricOf(r.ref, m), metricOf(r.out, m)) })
	return g
}
