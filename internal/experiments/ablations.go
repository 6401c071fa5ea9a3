package experiments

import (
	"fmt"
	"strings"

	"veriopt/internal/grpo"
	"veriopt/internal/pipeline"
)

// ablationGRPO probes the GRPO design choices of §IV-B and DESIGN.md
// §6: token-level vs sequence-level loss normalization, group-relative
// advantages vs raw REINFORCE, and the BLEU shaping term of Eq. 1.
// Each variant trains a fresh Model Zero for the same number of steps
// and is compared on the validation set.
func ablationGRPO(c *Context) (*Outcome, error) {
	train, err := c.Train()
	if err != nil {
		return nil, err
	}
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}

	steps := c.Cfg.Stage.Stage1Steps * 2
	variants := []struct {
		name   string
		mutate func(*grpo.Config)
	}{
		{"full (token-norm, group-adv, BLEU)", func(*grpo.Config) {}},
		{"sequence-level normalization", func(g *grpo.Config) { g.SeqLevelNorm = true }},
		{"no group baseline (REINFORCE)", func(g *grpo.Config) { g.NoGroupBaseline = true }},
		{"no BLEU shaping (sparse reward)", func(g *grpo.Config) { g.NoBleuShaping = true }},
	}

	var sb strings.Builder
	nums := map[string]float64{}
	fmt.Fprintf(&sb, "GRPO variants, %d steps each from the same base model:\n", steps)
	fmt.Fprintf(&sb, "%-38s %12s %12s %10s\n", "Variant", "DiffCorrect%", "Correct%", "Speedup")
	for i, v := range variants {
		m := res.Base.Clone()
		cfg := c.Cfg.Stage.GRPO
		cfg.Mode = grpo.ModeCorrectness
		cfg.Workers = c.Cfg.Workers
		v.mutate(&cfg)
		tr := grpo.NewTrainer(m, train, cfg, c.Cfg.Seed+7000+int64(i))
		tr.Oracle = c.Oracle
		if _, err := tr.TrainCtx(c.context(), steps); err != nil {
			return nil, err
		}
		rep, err := c.report(m, false)
		if err != nil {
			return nil, err
		}
		sp := pipeline.GeomeanSpeedup(rep)
		fmt.Fprintf(&sb, "%-38s %11.1f%% %11.1f%% %9.2fx\n",
			v.name, 100*rep.DifferentCorrectFrac(), 100*rep.CorrectFrac(), sp)
		key := fmt.Sprintf("variant%d_diff_correct_pct", i)
		nums[key] = 100 * rep.DifferentCorrectFrac()
	}
	return &Outcome{id: "ablation_grpo", title: "Ablation: GRPO design choices (§IV-B)", text: sb.String(), numbers: nums}, nil
}

// ablationVerifier contrasts the verifier-in-the-loop reward against
// using the verifier only as a post-hoc output filter (DESIGN.md §6
// item 1): the filter guarantees the same safety but cannot teach the
// model anything, so the useful-output rate stays at the base level.
func ablationVerifier(c *Context) (*Outcome, error) {
	res, err := c.Pipeline()
	if err != nil {
		return nil, err
	}
	baseRep, err := c.report(res.Base, false)
	if err != nil {
		return nil, err
	}
	latRep, err := c.report(res.Latency, false)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Verifier as post-filter only (base model + fallback): diff-correct %.1f%%, speedup %.2fx\n",
		100*baseRep.DifferentCorrectFrac(), pipeline.GeomeanSpeedup(baseRep))
	fmt.Fprintf(&sb, "Verifier inside the RL reward (LLM-VeriOpt):         diff-correct %.1f%%, speedup %.2fx\n",
		100*latRep.DifferentCorrectFrac(), pipeline.GeomeanSpeedup(latRep))
	fmt.Fprintf(&sb, "\nBoth configurations ship only verified IR (fallback to -O0 otherwise);\nonly the in-loop reward converts verification into optimization capability.\n")
	return &Outcome{
		id:    "ablation_verifier",
		title: "Ablation: verifier in the reward vs verifier as post-filter",
		text:  sb.String(),
		numbers: map[string]float64{
			"postfilter_diff_correct_pct": 100 * baseRep.DifferentCorrectFrac(),
			"inloop_diff_correct_pct":     100 * latRep.DifferentCorrectFrac(),
		},
	}, nil
}
