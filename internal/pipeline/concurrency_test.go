package pipeline

import (
	"context"
	"math"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

// TestEvaluateIdenticalAcrossWorkers: greedy evaluation must produce
// a byte-identical report at any worker count (tentpole acceptance
// criterion). Private oracle stacks keep the runs cache-independent
// too.
func TestEvaluateIdenticalAcrossWorkers(t *testing.T) {
	res, val := smallRun(t)
	r1 := evaluate(res.Latency, val, false, EvalConfig{Workers: 1, Oracle: oracle.NewStack(oracle.Config{})})
	r4 := evaluate(res.Latency, val, false, EvalConfig{Workers: 4, Oracle: oracle.NewStack(oracle.Config{})})

	if r1.Correct != r4.Correct || r1.Copies != r4.Copies || r1.Semantic != r4.Semantic ||
		r1.Syntax != r4.Syntax || r1.Inconclusive != r4.Inconclusive {
		t.Fatalf("tallies differ: %+v vs %+v", *r1, *r4)
	}
	for i := range r1.results {
		a, b := r1.results[i], r4.results[i]
		if a.verdict != b.verdict || a.diag != b.diag || a.copied != b.copied ||
			a.usedFallback != b.usedFallback || a.out != b.out || a.base != b.base || a.ref != b.ref {
			t.Fatalf("sample %d differs between worker counts:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// TestEvaluateCacheSharing: the second evaluation of the same model
// over the same samples must be answered from the verdict cache, also
// when one leaves Verify zero and the other spells out the defaults.
func TestEvaluateCacheSharing(t *testing.T) {
	res, val := smallRun(t)
	st := oracle.NewStack(oracle.Config{})
	evaluate(res.Latency, val, false, EvalConfig{Workers: 4, Oracle: st})
	miss := st.Engine.Stats().Misses
	evaluate(res.Latency, val, false, EvalConfig{Verify: alive.DefaultOptions(), Workers: 4, Oracle: st})
	s := st.Engine.Stats()
	if s.Misses != miss {
		t.Fatalf("re-evaluation ran the solver again: %+v", s)
	}
	if s.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", s)
	}
}

// TestEvaluateCancellationPartialReport: canceling mid-Evaluate must
// return promptly with a partial report — evaluated samples keep
// results, unreached ones are counted Skipped and excluded from every
// aggregate, and no goroutine stays wedged.
func TestEvaluateCancellationPartialReport(t *testing.T) {
	res, val := smallRun(t)
	started := make(chan struct{}, 1)
	blocking := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return alive.CanceledResult(ctx.Err())
	})
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := EvaluateCtx(ctx, res.Latency, val, false,
			EvalConfig{Workers: 2, Oracle: blocking})
		done <- outcome{rep, err}
	}()
	<-started
	cancel()
	select {
	case o := <-done:
		if o.err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", o.err)
		}
		if len(o.rep.results) != len(val) {
			t.Fatalf("results slice resized: %d vs %d samples", len(o.rep.results), len(val))
		}
		if o.rep.Total()+o.rep.Skipped != len(val) {
			t.Fatalf("Total %d + Skipped %d != %d", o.rep.Total(), o.rep.Skipped, len(val))
		}
		// Every aggregate must tolerate the nil slots of a partial report.
		OutcomesVsO0(o.rep, MetricLatency)
		VsInstCombine(o.rep, MetricLatency)
		GeomeanRatio(o.rep, MetricSize)
		RefGeomeanSpeedup(o.rep)
		HybridGeomeanGain(o.rep, MetricICount)
		_ = o.rep.DifferentCorrectFrac()
	case <-time.After(10 * time.Second):
		t.Fatal("EvaluateCtx did not return promptly after cancel")
	}
}

// TestEvaluateCanceledVerdictsCountSkipped: a sample whose judge
// result carries Canceled (e.g. a per-query timeout expired) was
// never genuinely evaluated — it must land in Skipped, not
// Inconclusive, and must not participate in Total() or the fractions.
func TestEvaluateCanceledVerdictsCountSkipped(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 7, N: 12})
	if err != nil {
		t.Fatal(err)
	}
	m := policy.New(policy.CapQwen3B, 1)
	// Every oracle query comes back canceled; samples whose output
	// fails to parse never reach the oracle and stay SyntaxError.
	canceled := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		return alive.CanceledResult(context.Canceled)
	})
	rep, err := EvaluateCtx(context.Background(), m, samples, false,
		EvalConfig{Workers: 2, Oracle: canceled})
	if err != nil {
		t.Fatalf("uncanceled run returned err = %v", err)
	}
	nCanceled := 0
	for i, r := range rep.results {
		if r == nil {
			t.Fatalf("complete run left slot %d nil", i)
		}
		if r.canceled {
			nCanceled++
		}
	}
	if nCanceled == 0 {
		t.Fatal("no sample reached the canceling oracle; test is vacuous")
	}
	if rep.Skipped != nCanceled {
		t.Fatalf("Skipped = %d, want %d (one per canceled verdict)", rep.Skipped, nCanceled)
	}
	if rep.Inconclusive != 0 {
		t.Fatalf("canceled verdicts leaked into Inconclusive: %+v", *rep)
	}
	if rep.Total() != len(samples)-nCanceled {
		t.Fatalf("Total() = %d, want %d", rep.Total(), len(samples)-nCanceled)
	}
	if sum := rep.Correct + rep.Semantic + rep.Syntax + rep.Inconclusive; sum != rep.Total() {
		t.Fatalf("buckets sum to %d, Total() = %d", sum, rep.Total())
	}
}

// TestEvaluatePartialFractionsExcludeCanceled: under a mid-run
// cancel, the samples verified before the cut keep their verdicts and
// the fractions are computed over them alone — in-flight canceled
// verdicts and unreached samples both count as Skipped.
func TestEvaluatePartialFractionsExcludeCanceled(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 11, N: 12})
	if err != nil {
		t.Fatal(err)
	}
	m := policy.New(policy.CapQwen3B, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var queries int
	// Sequential (Workers: 1) so the cut point is deterministic: the
	// first three queries answer Equivalent, the fourth cancels the
	// run and everything from there comes back canceled.
	fake := oracle.Func(func(qctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		queries++
		if queries > 3 {
			cancel()
			return alive.CanceledResult(context.Canceled)
		}
		return alive.Result{Verdict: alive.Equivalent}
	})
	rep, runErr := EvaluateCtx(ctx, m, samples, false,
		EvalConfig{Workers: 1, Oracle: fake})
	if runErr != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	evaluated := 0
	for _, r := range rep.results {
		if r == nil || r.canceled {
			continue
		}
		evaluated++
	}
	if rep.Total() != evaluated {
		t.Fatalf("Total() = %d, want %d genuinely evaluated samples", rep.Total(), evaluated)
	}
	if rep.Total()+rep.Skipped != len(samples) {
		t.Fatalf("Total %d + Skipped %d != %d", rep.Total(), rep.Skipped, len(samples))
	}
	if rep.Inconclusive != 0 {
		t.Fatalf("canceled verdicts leaked into Inconclusive: %+v", *rep)
	}
	if rep.Total() > 0 {
		want := float64(rep.Correct) / float64(rep.Total())
		if got := rep.CorrectFrac(); got != want {
			t.Fatalf("CorrectFrac() = %v, want %v (over evaluated samples only)", got, want)
		}
	}
}

// TestRunCtxCancellationPartialResult: a canceled curriculum returns
// the completed stages and leaves the interrupted ones nil.
func TestRunCtxCancellationPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	samples, err := dataset.Generate(dataset.Config{Seed: 5, N: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStageConfig()
	cfg.Stage1Steps, cfg.Stage2Steps, cfg.Stage3Steps = 2, 2, 2
	res, err := RunCtx(ctx, samples, cfg)
	if err == nil {
		t.Fatal("pre-canceled RunCtx returned nil error")
	}
	if res == nil || res.Base == nil {
		t.Fatal("canceled RunCtx returned no partial result")
	}
	if res.ModelZero != nil || res.Latency != nil {
		t.Fatal("canceled run claims completed stages")
	}
}

// TestMeanDeltaSkipsZeroBaseline: MeanDelta used to sum only over
// positive-baseline samples but divide by len(results), dragging the
// mean toward zero whenever a sample had a zero baseline metric.
func TestMeanDeltaSkipsZeroBaseline(t *testing.T) {
	rep := &Report{results: []*sampleResult{
		{
			base: costmodel.Metrics{Latency: 100, Size: 10, ICount: 10},
			ref:  costmodel.Metrics{Latency: 100, Size: 10, ICount: 10},
			out:  costmodel.Metrics{Latency: 50, Size: 10, ICount: 10},
		},
		{
			// A zero-latency sample: no relative change is defined, so
			// it must not participate in the mean.
			base: costmodel.Metrics{Latency: 0, Size: 10, ICount: 10},
			ref:  costmodel.Metrics{Latency: 0, Size: 10, ICount: 10},
			out:  costmodel.Metrics{Latency: 0, Size: 10, ICount: 10},
		},
	}}
	if got := OutcomesVsO0(rep, MetricLatency).MeanDelta; math.Abs(got-(-0.5)) > 1e-12 {
		t.Errorf("OutcomesVsO0 MeanDelta = %v, want -0.5", got)
	}
	if got := VsInstCombine(rep, MetricLatency).MeanDelta; math.Abs(got-(-0.5)) > 1e-12 {
		t.Errorf("VsInstCombine MeanDelta = %v, want -0.5", got)
	}
	// All-zero baselines: mean must stay zero, not NaN.
	zero := &Report{results: []*sampleResult{{}}}
	if got := OutcomesVsO0(zero, MetricLatency).MeanDelta; got != 0 || math.IsNaN(got) {
		t.Errorf("all-zero baseline MeanDelta = %v, want 0", got)
	}
}

// TestEvaluateEmptySamples guards the degenerate evaluation.
func TestEvaluateEmptySamples(t *testing.T) {
	res, _ := smallRun(t)
	rep := evaluate(res.Base, nil, false, EvalConfig{Workers: 4})
	if rep.Total() != 0 || rep.Correct != 0 {
		t.Fatalf("empty evaluation produced counts: %+v", *rep)
	}
	if o := OutcomesVsO0(&Report{}, MetricLatency); o.MeanDelta != 0 {
		t.Fatalf("empty report MeanDelta = %v", o.MeanDelta)
	}
}
