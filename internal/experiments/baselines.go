package experiments

import (
	"context"

	"veriopt/internal/dataset"
	"veriopt/internal/policy"
	"veriopt/internal/rewrite"
	"veriopt/internal/sft"
)

// baseline is one comparison model of the paper's Fig. 5:
// supervised-fine-tuned (SFT) policies at several capacities
// (Qwen-0.5B/3B/7B, Llama-8B, Qwen-32B analogues) and an
// LLM-Compiler-7B analogue used without task-specific fine-tuning.
// All baselines use the generic prompt (Fig. 1) — no verifier-guided
// RL, no diagnose-and-correct protocol.
type baseline struct {
	name string
	// params is the parameter count in billions (Fig. 5 orders models
	// by size).
	params float64
	model  *policy.Model
}

// sftBaseline builds a supervised-fine-tuned baseline at the given capacity:
// behaviour cloning of the instcombine teacher on the training set
// ("train on the same dataset until convergence", §V-C), with no
// reinforcement learning and no diagnostic protocol. When ctx ends
// mid-training it returns the context's error and no baseline.
func sftBaseline(ctx context.Context, cap policy.Capacity, params float64, train []*dataset.Sample, seed int64) (*baseline, error) {
	m := policy.New(cap, seed)
	cfg := sft.DefaultConfig()
	// SFT-only training gets the full supervised budget; the warm-up
	// inside the VeriOpt pipeline deliberately uses fewer epochs.
	cfg.Epochs = 5
	if _, err := sft.WarmUpCtx(ctx, m, train, nil, cfg); err != nil {
		return nil, err
	}
	// Pure SFT models have no diagnose-and-correct ability.
	m.SelfCorrectGate = -2
	return &baseline{name: cap.Name + "-SFT", params: params, model: m}, nil
}

// llmCompiler builds the LLM-Compiler-7B analogue: a model that
// compiles almost always (very low corruption rate — the paper
// reports 95.6% compiling output) but rarely matches the optimized
// form (20% exact match), because its pass-pipeline pretraining
// favours cosmetic and shallow transformations.
func llmCompiler(seed int64) *baseline {
	m := policy.New(policy.CapQwen7B, seed)
	for a, r := range m.Rules {
		switch r.Kind {
		case rewrite.KindSound:
			m.B[a] = 0.6
			if r.Name == "cosmetic-reorder" {
				m.B[a] = 1.6
			}
		case rewrite.KindExtra:
			m.B[a] = -1.6
		case rewrite.KindUnsound:
			m.B[a] = -0.8
		case rewrite.KindCorrupt:
			m.B[a] = -2.2 // high compile rate
		}
		m.S[a] = -1.5
		m.P[a] = 0.4
	}
	m.B[m.ActStop()] = 0.9
	m.S[m.ActStop()] = 1.8
	m.P[m.ActStop()] = -0.6
	m.B[m.ActFormatBreak()] = -2.4
	m.Clamp()
	return &baseline{name: "LLM-Compiler-7B", params: 7, model: m}
}

// baselineSuite builds the full Fig. 5 baseline set, ordered by
// parameter count. When ctx ends it trains no further baseline and
// returns the context's error.
func baselineSuite(ctx context.Context, train []*dataset.Sample, seed int64) ([]*baseline, error) {
	var err error
	sftB := func(cap policy.Capacity, params float64, seed int64) *baseline {
		if err != nil {
			return nil
		}
		var b *baseline
		b, err = sftBaseline(ctx, cap, params, train, seed)
		return b
	}
	suite := []*baseline{
		sftB(policy.CapQwen05B, 0.5, seed+1),
		sftB(policy.CapQwen3B, 3, seed+2),
		llmCompiler(seed + 3),
		sftB(policy.CapQwen7B, 7, seed+4),
		sftB(policy.CapLlama8B, 8, seed+5),
		sftB(policy.CapQwen32B, 32, seed+6),
	}
	if err != nil {
		return nil, err
	}
	return suite, nil
}
