package pipeline

import (
	"math"
	"testing"

	"veriopt/internal/costmodel"
	"veriopt/internal/policy"
)

// The §IV-C aggregates as five separate loops, one per exported
// function, exactly as they were written before they shared one fold.
// The fold must give the same Outcomes and the same float bits on
// every report: each log is added in sample order and each mean is the
// same division, so not even the last bit may move.

func refOutcomesVsO0(rep *Report, m Metric) Outcomes {
	var o Outcomes
	sum, n := 0.0, 0
	for _, r := range rep.results {
		if r == nil || r.canceled {
			continue
		}
		base := metricOf(r.base, m)
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
	if n > 0 {
		o.MeanDelta = sum / float64(n)
	}
	return o
}

func refGeomeanRatio(rep *Report, m Metric) float64 {
	logSum := 0.0
	n := 0
	for _, r := range rep.results {
		if r == nil || r.canceled {
			continue
		}
		base := metricOf(r.base, m)
		out := metricOf(r.out, m)
		if base <= 0 || out <= 0 {
			continue
		}
		logSum += math.Log(float64(out) / float64(base))
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

func refRefGeomeanSpeedup(rep *Report) float64 {
	logSum := 0.0
	n := 0
	for _, r := range rep.results {
		if r == nil || r.canceled {
			continue
		}
		b, ref := r.base.Latency, r.ref.Latency
		if b <= 0 || ref <= 0 {
			continue
		}
		logSum += math.Log(float64(b) / float64(ref))
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

func refVsInstCombine(rep *Report, m Metric) Outcomes {
	var o Outcomes
	sum, n := 0.0, 0
	for _, r := range rep.results {
		if r == nil || r.canceled {
			continue
		}
		ref := metricOf(r.ref, m)
		out := metricOf(r.out, m)
		switch {
		case out < ref:
			o.Better++
		case out > ref:
			o.Worse++
		default:
			o.Tie++
		}
		if ref > 0 {
			sum += float64(out-ref) / float64(ref)
			n++
		}
	}
	if n > 0 {
		o.MeanDelta = sum / float64(n)
	}
	return o
}

func refHybridGeomeanGain(rep *Report, m Metric) float64 {
	logSum := 0.0
	n := 0
	for _, r := range rep.results {
		if r == nil || r.canceled {
			continue
		}
		ref := metricOf(r.ref, m)
		out := metricOf(r.out, m)
		best := ref
		if out < best {
			best = out
		}
		if ref <= 0 || best <= 0 {
			continue
		}
		logSum += math.Log(float64(ref) / float64(best))
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// partialOf copies rep with every third slot never reached (nil) and
// every third slot after it cut short mid-flight (Canceled), the two
// kinds of hole a canceled evaluation leaves.
func partialOf(rep *Report) *Report {
	p := &Report{results: make([]*sampleResult, len(rep.results))}
	for i, r := range rep.results {
		switch i % 3 {
		case 0:
		case 1:
			c := *r
			c.canceled = true
			p.results[i] = &c
		default:
			p.results[i] = r
		}
	}
	return p
}

// zeroSides is a synthetic report whose samples put a zero metric on
// each side of every ratio in turn: base, out and ref, each alone and
// together, beside ordinary samples.
func zeroSides() *Report {
	ms := func(l, s, i int) costmodel.Metrics { return costmodel.Metrics{Latency: l, Size: s, ICount: i} }
	return &Report{results: []*sampleResult{
		{base: ms(10, 8, 6), out: ms(5, 8, 7), ref: ms(4, 9, 5)},
		{base: ms(0, 0, 0), out: ms(3, 2, 1), ref: ms(2, 2, 2)},
		{base: ms(7, 5, 3), out: ms(0, 0, 0), ref: ms(6, 5, 2)},
		{base: ms(9, 4, 4), out: ms(8, 4, 4), ref: ms(0, 0, 0)},
		{base: ms(0, 0, 0), out: ms(0, 0, 0), ref: ms(0, 0, 0)},
		{base: ms(12, 11, 10), out: ms(12, 13, 9), ref: ms(11, 11, 11)},
	}}
}

// TestAggregatesMatchReference holds every §IV-C aggregate to its
// separate-loop reference, bit for bit, on the curriculum's reports,
// a canceled partial report, zero metrics on either side of a ratio,
// and an empty report.
func TestAggregatesMatchReference(t *testing.T) {
	res, val := smallRun(t)
	cases := map[string]*Report{
		"empty":      {},
		"zero-sides": zeroSides(),
	}
	for _, run := range []struct {
		name string
		m    *policy.Model
		aug  bool
	}{
		{"base", res.Base, false},
		{"correctness", res.Correctness, true},
		{"latency", res.Latency, false},
	} {
		rep := evaluate(testStack, run.m, val, run.aug, EvalConfig{})
		cases[run.name] = rep
		cases[run.name+"-partial"] = partialOf(rep)
	}
	bits := math.Float64bits
	for name, rep := range cases {
		if got, want := bits(RefGeomeanSpeedup(rep)), bits(refRefGeomeanSpeedup(rep)); got != want {
			t.Errorf("%s: RefGeomeanSpeedup bits %x, reference %x", name, got, want)
		}
		if got, want := bits(GeomeanSpeedup(rep)), bits(1/refGeomeanRatio(rep, MetricLatency)); got != want {
			t.Errorf("%s: GeomeanSpeedup bits %x, reference %x", name, got, want)
		}
		for _, m := range []Metric{MetricLatency, MetricSize, MetricICount} {
			if got, want := OutcomesVsO0(rep, m), refOutcomesVsO0(rep, m); got != want || bits(got.MeanDelta) != bits(want.MeanDelta) {
				t.Errorf("%s/%s: OutcomesVsO0 %+v, reference %+v", name, m, got, want)
			}
			if got, want := VsInstCombine(rep, m), refVsInstCombine(rep, m); got != want || bits(got.MeanDelta) != bits(want.MeanDelta) {
				t.Errorf("%s/%s: VsInstCombine %+v, reference %+v", name, m, got, want)
			}
			if got, want := bits(GeomeanRatio(rep, m)), bits(refGeomeanRatio(rep, m)); got != want {
				t.Errorf("%s/%s: GeomeanRatio bits %x, reference %x", name, m, got, want)
			}
			if got, want := bits(HybridGeomeanGain(rep, m)), bits(refHybridGeomeanGain(rep, m)); got != want {
				t.Errorf("%s/%s: HybridGeomeanGain bits %x, reference %x", name, m, got, want)
			}
		}
	}
}
