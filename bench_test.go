// Package veriopt's root benchmark harness: one testing.B benchmark
// per paper table and figure (see DESIGN.md §4 for the index). The
// expensive shared artifacts — corpus, trained curriculum, baselines
// — are built once per benchmark binary, and the context keeps the
// validation report of each (model, prompt) it evaluates; so the
// first iteration of a table or figure pays for the
// inference+verification work the paper's artifact measures, and
// later iterations time rendering from memoized reports.
// BenchmarkGreedyInferenceWithVerification and the Workers benchmarks
// evaluate afresh on every iteration.
package veriopt

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/experiments"
	"veriopt/internal/grpo"
	"veriopt/internal/instcombine"
	"veriopt/internal/oracle"
	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
	"veriopt/internal/seqopt"
)

var (
	ctxOnce sync.Once
	ctx     *experiments.Context
	ctxErr  error
)

// testStack verifies the shared context's runs and the evaluations of
// its models, so an evaluation re-proves training's outputs from cache.
var testStack = oracle.NewStack(oracle.Config{})

// benchContext builds the shared reduced-scale context (corpus +
// curriculum + baselines).
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	ctxOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.CorpusN = 150
		cfg.Stage.Stage1Steps = 8
		cfg.Stage.Stage2Steps = 60
		cfg.Stage.Stage3Steps = 40
		ctx = experiments.NewContext(cfg, testStack)
		_, ctxErr = ctx.Pipeline()
	})
	if ctxErr != nil {
		b.Fatal(ctxErr)
	}
	return ctx
}

func benchExperiment(b *testing.B, id string) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id, c)
		if err != nil {
			b.Fatal(err)
		}
		// Render is the title between two bars, the text, then the
		// measured numbers.
		text := strings.SplitN(experiments.Render(out), "\n", 4)[3]
		if text == "" || strings.HasPrefix(text, "\nmeasured numbers:") {
			b.Fatal("empty experiment output")
		}
	}
}

// BenchmarkTable1BaselineVerdicts regenerates Table I (verdict
// categories of the untrained base model).
func BenchmarkTable1BaselineVerdicts(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2VeriOptVerdicts regenerates Table II
// (Model-Correctness and Model-Latency verdicts).
func BenchmarkTable2VeriOptVerdicts(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3OutcomesVsO0 regenerates Table III (Better/Worse/Tie
// vs -O0 across the three metrics).
func BenchmarkTable3OutcomesVsO0(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig4TrainingDynamics regenerates Figure 4 (reward curves
// with EMA smoothing).
func BenchmarkFig4TrainingDynamics(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5BaselineComparison regenerates Figure 5 (SFT baselines
// of increasing scale + LLM-Compiler analogue vs LLM-VeriOpt).
func BenchmarkFig5BaselineComparison(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6VsInstCombine regenerates Figure 6 (pairwise
// distributions against instcombine and the hybrid fallback gain).
func BenchmarkFig6VsInstCombine(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Ablation regenerates Figure 7 (the four-stage
// curriculum ablation).
func BenchmarkFig7Ablation(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8to12Examples regenerates the qualitative examples of
// Figures 8-12.
func BenchmarkFig8to12Examples(b *testing.B) { benchExperiment(b, "fig8_12") }

// BenchmarkAblationVerifierPlacement runs the verifier-placement
// ablation (DESIGN.md §6).
func BenchmarkAblationVerifierPlacement(b *testing.B) { benchExperiment(b, "ablation_verifier") }

// BenchmarkDatasetGeneration measures corpus synthesis + labeling +
// verification-filtering throughput.
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(dataset.Config{Seed: int64(i + 1), N: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstCombinePass measures the reference pass on the corpus.
func BenchmarkInstCombinePass(b *testing.B) {
	samples, err := dataset.Generate(dataset.Config{Seed: 3, N: 40, SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			instcombine.Run(s.O0)
		}
	}
}

// BenchmarkGreedyInferenceWithVerification measures the paper's
// deployment path: greedy generation plus full verification with
// fallback, per function.
func BenchmarkGreedyInferenceWithVerification(b *testing.B) {
	c := benchContext(b)
	res, err := c.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	val, err := c.Val()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := pipeline.EvaluateCtx(context.Background(), testStack, res.Latency, val, false, pipeline.EvalConfig{})
		if rep.Total() != len(val) {
			b.Fatal("evaluation lost samples")
		}
	}
}

// benchEvalWorkers measures evaluation throughput at a fixed worker
// count: the cmdTrain-style model suite (base, correctness, latency)
// over the validation set, starting each iteration from a cold
// private verdict cache. Different curriculum stages frequently emit
// the same output for a sample (e.g. both copy the input), so the
// verdict cache takes hits within a single iteration; the hit counter
// is asserted and reported.
func benchEvalWorkers(b *testing.B, workers int) {
	c := benchContext(b)
	res, err := c.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	val, err := c.Val()
	if err != nil {
		b.Fatal(err)
	}
	models := []*policy.Model{res.Base, res.Correctness, res.Latency}
	var st *oracle.Stack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = oracle.NewStack(oracle.Config{})
		cfg := pipeline.EvalConfig{Workers: workers}
		for _, m := range models {
			rep, _ := pipeline.EvaluateCtx(context.Background(), st, m, val, false, cfg)
			if rep.Total() != len(val) {
				b.Fatal("evaluation lost samples")
			}
		}
	}
	b.StopTimer()
	s := st.Engine.Stats()
	if s.Hits == 0 {
		b.Fatal("verdict cache recorded no hits")
	}
	b.ReportMetric(float64(s.Hits)/float64(s.Queries)*100, "cache-hit-%")
}

// BenchmarkEvaluateWorkers1 is the sequential evaluation baseline for
// the concurrency speedup (EXPERIMENTS.md records the measured delta
// against BenchmarkEvaluateWorkers4).
func BenchmarkEvaluateWorkers1(b *testing.B) { benchEvalWorkers(b, 1) }

// BenchmarkEvaluateWorkers4 is the 4-worker evaluation fan-out.
func BenchmarkEvaluateWorkers4(b *testing.B) { benchEvalWorkers(b, 4) }

// BenchmarkTrainerStepWorkers1 and ...Workers4 measure one GRPO step
// (rollout + verification grid) at fixed worker counts; training is
// bit-identical at any value, so the delta is pure wall-clock.
// BenchmarkTrainerStepLatencyWorkers1 is the sequential step in the
// Model-Latency stage's reward mode.
func benchTrainerStep(b *testing.B, mode grpo.RewardMode, workers int) {
	tr := stepTrainer(b, mode, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StepCtx(context.Background())
	}
}

// stepTrainer is the trainer the step benchmarks and
// TestGRPOStepAllocCeilings run: corpus seed 11 (48 samples), policy
// seed 5, trainer seed 17, on a fresh stack. The CoT mode opens the
// self-correction gate (as the warm-up does), so the
// correction rollout and the diagnosis are on the step; the latency
// mode takes the curriculum's Eq. 3–4 parameters.
func stepTrainer(tb testing.TB, mode grpo.RewardMode, workers int) *grpo.Trainer {
	samples, err := dataset.Generate(dataset.Config{Seed: 11, N: 48})
	if err != nil {
		tb.Fatal(err)
	}
	m := policy.New(policy.CapQwen3B, 5)
	cfg := grpo.DefaultConfig()
	cfg.Workers = workers
	cfg.Mode = mode
	switch mode {
	case grpo.ModeCorrectnessCoT:
		m.SelfCorrectGate = 2
	case grpo.ModeLatency:
		cfg.UMax = grpo.ComputeUMax(samples)
	}
	return grpo.NewTrainer(oracle.NewStack(oracle.Config{}), m, samples, cfg, 17)
}

// BenchmarkTrainerStepWorkers1 is the sequential GRPO-step baseline.
func BenchmarkTrainerStepWorkers1(b *testing.B) { benchTrainerStep(b, grpo.ModeCorrectness, 1) }

// BenchmarkTrainerStepWorkers4 fans the rollout grid over 4 workers.
func BenchmarkTrainerStepWorkers4(b *testing.B) { benchTrainerStep(b, grpo.ModeCorrectness, 4) }

// BenchmarkTrainerStepLatencyWorkers1 is one sequential Model-Latency step.
func BenchmarkTrainerStepLatencyWorkers1(b *testing.B) {
	benchTrainerStep(b, grpo.ModeLatency, 1)
}

// TestGRPOStepAllocCeilings holds what one Workers-1 GRPO step
// allocates in each text reward mode (stepTrainer's) and in the
// sequence policy (corpus seed 17, 40 samples, model seed 5, trainer
// seed 23): stepAllocs' reading, which repeats to the allocation from
// run to run. It reads (2-vCPU Xeon, go1.24.0) correctness 2 902.95,
// CoT 3 670.65, latency 3 419.90 and sequence 4 091.05; the correctness
// and latency rows read 5 more before the diagnostic head's gradient
// was built only in a step where the diagnosis is paid. Each ceiling
// was set about 5 % above its step's reading when it was last lowered,
// and none has been raised since the test was written.
func TestGRPOStepAllocCeilings(t *testing.T) {
	seqData, err := dataset.Generate(dataset.Config{Seed: 17, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	text := func(mode grpo.RewardMode) func() *grpo.Trainer {
		return func() *grpo.Trainer { return stepTrainer(t, mode, 1) }
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		fresh   func() *grpo.Trainer
	}{
		{"correctness", 3270, text(grpo.ModeCorrectness)},
		{"correctness-cot", 4075, text(grpo.ModeCorrectnessCoT)},
		{"latency", 3800, text(grpo.ModeLatency)},
		{"sequence", 4300, func() *grpo.Trainer {
			return grpo.NewSequenceTrainer(oracle.NewStack(oracle.Config{}), seqopt.NewModel(5), seqData, 0, 1, 23)
		}},
	} {
		got := stepAllocs(tc.fresh)
		t.Logf("%s: %.2f allocations per step", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.2f allocations per step, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// stepAllocs returns the mean allocations of allocSteps steps after a
// first one, the fewest over allocWindows windows, each window on a
// trainer fresh builds (so every window replays the same steps), with
// GOMAXPROCS 1 and the collector off. testing.AllocsPerRun's reading
// moved by one between runs of one tree: a collection during the
// window refills fmt's printer pool and the runtime allocates for
// itself, and the runtime builds each call site's type-assertion cache
// (math/rand.New's Source64 assertion, fmt's Stringer and Formatter
// switch) at a random one of its misses, so whichever window happens to
// build one reads an allocation more. The fewest over the windows is
// the step's own count.
func stepAllocs(fresh func() *grpo.Trainer) float64 {
	const allocSteps, allocWindows = 20, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range allocWindows {
		tr := fresh()
		tr.StepCtx(context.Background())
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for range allocSteps {
			tr.StepCtx(context.Background())
		}
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return float64(fewest) / allocSteps
}
