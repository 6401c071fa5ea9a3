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

// Episode is one rollout: an ordered pass sequence applied to the
// input, over the input's "seq"-salted hash features.
type Episode struct {
	policy.Rollout
	// Sequence names the passes actually applied (STOP excluded).
	Sequence []string
	// FinalFn is the resulting function (the input itself when
	// Sequence is empty). Unverified: reward gating verifies it against
	// the input.
	FinalFn *ir.Function
}

// Generate rolls out a pass sequence on f. At each step the candidate
// set is the passes that actually change the current state, plus
// STOP; the episode ends on STOP or at MaxLen. As in the token policy's
// rollout, rng samples each step at temperature 1 and nil decodes
// greedily. Each pass is probed on a copy one copier makes and
// releases; only the picked one is applied, into fresh memory.
func (m *Model) Generate(f *ir.Function, rng *rand.Rand) *Episode {
	if len(registry) != len(m.Passes) {
		panic(fmt.Sprintf("seqopt: model has %d passes, registry has %d", len(m.Passes), len(registry)))
	}
	ep := &Episode{Rollout: policy.Rollout{H: policy.HashFeatures(m.HashFeatures, "seq", ir.CanonicalText(f))}, FinalFn: f}
	cur := f
	var c ir.Copier
	for t := 0; t < m.MaxLen; t++ {
		var cands []int
		for i, p := range registry {
			if _, changed := p.apply(cur, &c); changed {
				cands = append(cands, i)
			}
			c.Release()
		}
		cands = append(cands, m.actStop())
		stepFrac := float64(t) / float64(m.MaxLen)
		pick := m.Choose(cands, stepFrac, 0, ep.H, rng)
		ep.Actions = append(ep.Actions, policy.ActionRecord{Cands: cands, StepFrac: stepFrac, Chosen: pick})
		if pick == len(cands)-1 { // STOP, the last candidate
			break
		}
		cur, _ = registry[cands[pick]].Apply(cur)
		ep.Sequence = append(ep.Sequence, m.Passes[cands[pick]])
	}
	ep.FinalFn = cur
	return ep
}
