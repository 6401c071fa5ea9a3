// Package policy implements the simulated LLM at the heart of the
// reproduction: a stochastic, trainable rewrite policy standing in
// for Qwen2.5-3B (see DESIGN.md §2 for the substitution argument).
//
// The policy is a linear-softmax model (Linear, linear.go) over a
// discrete action space (internal/rewrite rules + STOP + a
// format-breaking action), scored on the step fraction t/T, the
// work-remaining feature and per-input hash features h_j(x). Because
// h_j are effectively noise, the policy can reduce but never fully
// eliminate input-dependent mistakes, reproducing the residual error
// rates of Table II; "model scale" (Fig. 5) maps to the noise
// magnitude and feature count (Capacity).
//
// Generation is greedy for evaluation (paper §IV-B: deterministic,
// reproducible) and sampled at temperature 1 during GRPO training.
package policy

import (
	"math/rand"

	"veriopt/internal/rewrite"
)

// Capacity models an LLM's scale: more hash features and lower noise
// ≈ more parameters.
type Capacity struct {
	Name string
	// HashFeatures is the number of per-input pseudo-random features.
	HashFeatures int
	// NoiseScale scales the initial magnitude of the N weights.
	NoiseScale float64
	// MaxSteps bounds the number of rewrite actions per generation —
	// the policy's effective "output length" budget.
	MaxSteps int
	// MaxBias caps |B| and |S| — the finite parameter budget. Training
	// saturates at the cap, so the irreducible per-input noise keeps a
	// residual error rate that shrinks with model scale (Table II's
	// ~10% for the 3B model).
	MaxBias float64
}

// Standard capacities used across the experiments (Fig. 5).
var (
	CapQwen05B = Capacity{Name: "Qwen-0.5B", HashFeatures: 3, NoiseScale: 2.2, MaxSteps: 14, MaxBias: 1.2}
	CapQwen3B  = Capacity{Name: "Qwen-3B", HashFeatures: 4, NoiseScale: 1.2, MaxSteps: 24, MaxBias: 1.5}
	CapQwen7B  = Capacity{Name: "Qwen-7B", HashFeatures: 5, NoiseScale: 0.8, MaxSteps: 28, MaxBias: 2.4}
	CapLlama8B = Capacity{Name: "Llama-8B", HashFeatures: 5, NoiseScale: 0.75, MaxSteps: 28, MaxBias: 2.4}
	CapQwen32B = Capacity{Name: "Qwen-32B", HashFeatures: 6, NoiseScale: 0.45, MaxSteps: 36, MaxBias: 3.2}
)

// Special action indices appended after the rewrite rules.
const (
	// actStop ends generation and emits the current function.
	actStopOffset = 0
	// actFormatBreak emits the answer without the required format
	// (missing <answer> tags), zeroing the format reward t_i.
	actFormatBreakOffset = 1
	numSpecialActions    = 2
)

// Model is the trainable policy plus its diagnostic head.
type Model struct {
	Cap   Capacity
	Rules []*rewrite.Rule

	// Linear is the scorer: per-action bias B, step-fraction weight S,
	// work-remaining weight P, and frozen hash-feature weights N.
	Linear

	// Diag is the diagnostic head used in augmented-prompt mode.
	Diag *DiagHead

	// SelfCorrectGate in [pre-sigmoid] controls whether a predicted
	// error triggers a correction attempt.
	SelfCorrectGate float64
}

// ActStop returns the STOP action index.
func (m *Model) ActStop() int { return len(m.Rules) + actStopOffset }

// ActFormatBreak returns the format-breaking action index.
func (m *Model) ActFormatBreak() int { return len(m.Rules) + actFormatBreakOffset }

// New builds an untrained base model whose initial action
// distribution is calibrated to the paper's Table I profile for the
// raw foundation model: mostly copies (STOP first), a substantial
// syntax-error mass (corruptions), a small semantic-error mass
// (unsound rules), and occasional real optimizations.
func New(cap Capacity, seed int64) *Model {
	rules := rewrite.All()
	m := &Model{Cap: cap, Rules: rules}
	rng := rand.New(rand.NewSource(seed))
	m.Linear = NewLinear(len(m.Rules)+numSpecialActions, cap.HashFeatures, cap.NoiseScale, true, rng)
	// Base biases per kind (Table I calibration; see DESIGN.md §5).
	for a, r := range rules {
		switch r.Kind {
		case rewrite.KindSound:
			m.B[a] = -0.35
			if r.Name == rewrite.CosmeticReorder {
				// The base model's favourite: change the text without
				// improving anything.
				m.B[a] = 1.75
			}
		case rewrite.KindExtra:
			m.B[a] = -0.7
		case rewrite.KindUnsound:
			m.B[a] = -1.0
		case rewrite.KindCorrupt:
			m.B[a] = -1.1
		}
	}
	m.B[m.ActStop()] = 1.25
	m.B[m.ActFormatBreak()] = -1.6
	// The base model grows more likely to stop — and less likely to
	// keep transforming — as generation proceeds; RL later learns to
	// sustain long sound rewrite chains by raising S for sound rules.
	for a := range m.S {
		m.S[a] = -2.0
	}
	m.S[m.ActStop()] = 2.5
	m.S[m.ActFormatBreak()] = -2.0
	m.Diag = newDiagHead(cap, rng)
	m.SelfCorrectGate = -2.0 // base model rarely self-corrects
	return m
}

// Clone deep-copies the model (used to snapshot curriculum stages).
func (m *Model) Clone() *Model {
	return &Model{Cap: m.Cap, Rules: m.Rules, SelfCorrectGate: m.SelfCorrectGate,
		Linear: m.Linear.clone(), Diag: m.Diag.clone()}
}

// HashFeatures embeds input text x for this model's capacity.
func (m *Model) HashFeatures(x string) []float64 {
	return HashFeatures(m.Cap.HashFeatures, "", x)
}

// Clamp enforces the finite parameter budget: |B|,|S|,|P| and the
// diagnostic head's weights <= MaxBias. Called after every training
// update.
func (m *Model) Clamp() { m.Linear.Clamp(m.Cap.MaxBias, m.Diag.W...) }
