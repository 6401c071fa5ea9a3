package seqopt

import (
	"fmt"
	"math/rand"

	"veriopt/internal/ir"
	"veriopt/internal/policy"
)

// Model is the trainable sequence policy: policy.Linear — the same
// scorer, gradient and update as the token policy — over pass indices
// plus STOP. Its features are the step fraction and the "seq"-salted
// hash embedding of the input's canonical text; it has no
// work-remaining weight (P is nil). What is specific to pass sequences
// lives here: the registry binding and Generate.
type Model struct {
	// Passes names the action space in registry order; action index i
	// < len(Passes) applies Passes[i], index len(Passes) is STOP.
	Passes []string
	// HashFeatures is the input-embedding width.
	HashFeatures int
	// MaxLen bounds episode length (sequence length before forced stop).
	MaxLen int
	// MaxBias caps |B| and |S| after each update.
	MaxBias float64

	policy.Linear
}

// NewModel builds an untrained sequence policy over the default
// registry. The initial distribution mildly prefers stopping and
// decays transform probability with depth, so the untrained policy
// mostly emits short sequences — training must learn to sustain them.
func NewModel(seed int64) *Model {
	m := &Model{
		Passes:       passNames(),
		HashFeatures: 4,
		MaxLen:       6,
		MaxBias:      2.5,
	}
	m.Linear = policy.NewLinear(m.numActions(), m.HashFeatures, 1, false, rand.New(rand.NewSource(seed)))
	m.B[m.actStop()] = 0.5
	for a := 0; a < len(m.Passes); a++ {
		m.S[a] = -0.5
	}
	m.S[m.actStop()] = 1.5
	return m
}

// numActions counts passes plus STOP.
func (m *Model) numActions() int { return len(m.Passes) + 1 }

// actStop is the STOP action index.
func (m *Model) actStop() int { return len(m.Passes) }

// Episode is one rollout: an ordered pass sequence applied to Input.
type Episode struct {
	H       []float64
	Actions []policy.ActionRecord
	// Sequence names the passes actually applied (STOP excluded).
	Sequence []string
	// FinalFn is the resulting function (the input itself when
	// Sequence is empty). Unverified: reward gating verifies it against
	// the input.
	FinalFn *ir.Function
}

// GenOptions control rollout sampling.
type GenOptions struct {
	// Temperature for sampling; ignored when Rng is nil.
	Temperature float64
	// Rng drives sampling. nil selects greedy (argmax) decoding for
	// deterministic evaluation.
	Rng *rand.Rand
}

// Generate rolls out a pass sequence on f. At each step the candidate
// set is the passes that actually change the current state, plus
// STOP; the episode ends on STOP or at MaxLen.
func (m *Model) Generate(f *ir.Function, opts GenOptions) *Episode {
	passes := registry()
	if len(passes) != len(m.Passes) {
		panic(fmt.Sprintf("seqopt: model has %d passes, registry has %d", len(m.Passes), len(passes)))
	}
	ep := &Episode{H: policy.HashFeatures(m.HashFeatures, "seq", ir.CanonicalText(f)), FinalFn: f}
	cur := f
	for t := 0; t < m.MaxLen; t++ {
		// Probe which passes fire on the current state.
		var cands []int
		var next []*ir.Function
		for i, p := range passes {
			if g, changed := p.Apply(cur); changed {
				cands = append(cands, i)
				next = append(next, g)
			}
		}
		cands = append(cands, m.actStop())
		stepFrac := float64(t) / float64(m.MaxLen)
		pick := m.Choose(cands, stepFrac, 0, ep.H, opts.Temperature, opts.Rng)
		ep.Actions = append(ep.Actions, policy.ActionRecord{Cands: cands, StepFrac: stepFrac, Chosen: pick})
		if pick == len(next) { // STOP, the last candidate
			break
		}
		cur = next[pick]
		ep.Sequence = append(ep.Sequence, m.Passes[cands[pick]])
	}
	ep.FinalFn = cur
	return ep
}
