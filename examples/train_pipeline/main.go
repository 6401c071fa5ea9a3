// Train pipeline: runs a reduced version of the paper's four-model
// curriculum (Model Zero → Warm-up → Model-Correctness →
// Model-Latency) on a synthetic corpus and prints the per-stage
// evaluation — the Fig. 7 ablation in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"veriopt/internal/dataset"
	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
)

func main() {
	t0 := time.Now()
	samples, err := dataset.Generate(dataset.Config{Seed: 42, N: 120})
	if err != nil {
		log.Fatal(err)
	}
	train, val, err := dataset.Split(samples, 0.33, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d train / %d validation (generated in %v)\n",
		len(train), len(val), time.Since(t0).Round(time.Millisecond))

	cfg := pipeline.DefaultStageConfig()
	cfg.Stage1Steps = 8
	cfg.Stage2Steps = 60
	cfg.Stage3Steps = 40
	t0 = time.Now()
	ctx := context.Background()
	res, err := pipeline.RunCtx(ctx, train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("curriculum trained in %v (harvested %d diagnostic-augmented samples, UMax %.1f)\n\n",
		time.Since(t0).Round(time.Second), len(res.Failures), res.UMax)

	evaluate := func(m *policy.Model, augmented bool) *pipeline.Report {
		rep, err := pipeline.EvaluateCtx(ctx, m, val, augmented, pipeline.EvalConfig{})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	stages := []struct {
		name string
		rep  *pipeline.Report
	}{
		{"base (untrained)", evaluate(res.Base, false)},
		{"model zero", evaluate(res.ModelZero, false)},
		{"warm-up", evaluate(res.WarmUp, true)},
		{"model-correctness", evaluate(res.Correctness, true)},
		{"model-latency", evaluate(res.Latency, false)},
	}
	fmt.Printf("%-18s %9s %14s %9s\n", "stage", "correct%", "diff-correct%", "speedup")
	for _, s := range stages {
		fmt.Printf("%-18s %8.1f%% %13.1f%% %8.2fx\n", s.name,
			100*s.rep.CorrectFrac(), 100*s.rep.DifferentCorrectFrac(), pipeline.GeomeanSpeedup(s.rep))
	}
	fmt.Printf("\ninstcombine reference speedup on the same set: %.2fx\n",
		pipeline.RefGeomeanSpeedup(stages[4].rep))
}
