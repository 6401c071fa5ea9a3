package policy

import (
	"math/rand"

	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// Episode is one full generation: the action trajectory, the emitted
// first attempt, the optional diagnosis + correction, and the final
// completion.
type Episode struct {
	H []float64 // hash features of the input

	Actions []ActionRecord
	// AttemptText is the first attempt (inside <think> for augmented
	// prompts; the answer itself for generic prompts).
	AttemptText string

	// Diagnose/correction phase (augmented-prompt mode only). When
	// CorrectionUsed, FinalText is the correction's text.
	Diag           *DiagRecord
	CorrectionUsed bool
	CorrectionActs []ActionRecord
	// CorrH holds the hash features used by the correction rollout.
	CorrH []float64

	// FinalText is the IR text in the answer block.
	FinalText string
	// FormatOK is the paper's t_i: whether the completion carries the
	// required <answer> structure.
	FormatOK bool
}

// GenOptions controls one generation.
type GenOptions struct {
	// Rng, when set, samples every decision (the actions and the
	// diagnosis) at temperature 1; nil decodes greedily.
	Rng *rand.Rand
	// Augmented enables the <think> diagnose-and-correct protocol
	// (Fig. 2 of the paper); otherwise the generic prompt (Fig. 1).
	Augmented bool
}

// retrySalt perturbs the correction attempt's hash features, to
// decorrelate it from the first attempt.
const retrySalt = "#retry"

// Generate runs the policy on an input function, producing a
// completion. The input function is never modified.
func (m *Model) Generate(input *ir.Function, opts GenOptions) *Episode {
	inputText := ir.CanonicalText(input)
	ep := &Episode{H: m.HashFeatures(inputText)}
	choose := func(cands []int, stepFrac, work float64, h []float64) int {
		return m.Choose(cands, stepFrac, work, h, opts.Rng)
	}
	attempt, acts, formatBreak := m.rollout(input, ep.H, choose, nil)
	ep.Actions = acts
	ep.AttemptText = attempt
	ep.FormatOK = !formatBreak

	if !opts.Augmented {
		ep.FinalText = attempt
		return ep
	}

	// Augmented mode: diagnose the attempt, optionally correct.
	ep.Diag = m.diagnose(ep.H, acts, opts.Rng)
	if ep.Diag.PredictedClass != DiagOK && m.selfCorrectEnabled() {
		ep.CorrectionUsed = true
		// Mask the diagnosed family on the second attempt.
		mask := map[string]bool{}
		for _, name := range ep.Diag.blamedRules {
			mask[name] = true
		}
		if ep.Diag.PredictedClass == DiagSyntaxError {
			for _, r := range m.Rules {
				if r.Kind == rewrite.KindCorrupt {
					mask[r.Name] = true
				}
			}
		}
		h2 := m.HashFeatures(retrySalt + inputText)
		ep.CorrH = h2
		corrText, corrActs, corrFmtBreak := m.rollout(input, h2, choose, mask)
		ep.CorrectionActs = corrActs
		ep.FinalText = corrText
		ep.FormatOK = !corrFmtBreak
	} else {
		ep.FinalText = attempt
	}
	return ep
}

// Teach walks input as the warm-up's teacher: at each step the first
// available rule that does real work, else STOP. It returns the text
// the walk reaches and its records; h seeds each step's rule RNG, as
// in a generation.
func (m *Model) Teach(input *ir.Function, h []float64) (string, []ActionRecord) {
	text, acts, _ := m.rollout(input, h, m.teach, nil)
	return text, acts
}

// teach is the teacher's pick among cands: the first rule that does
// real work, else STOP (available lists STOP, then format-break, last).
func (m *Model) teach(cands []int, _, _ float64, _ []float64) int {
	for i, a := range cands {
		if a < len(m.Rules) && doesWork(m.Rules[a]) {
			return i
		}
	}
	return len(cands) - 2
}

// rollout runs one action sequence over a working copy of the input,
// returning the emitted text, the action records, and whether the
// format was broken. choose picks each step's index into the
// candidates: the model's Choose in a generation, teach for Teach.
func (m *Model) rollout(input *ir.Function, h []float64, choose func(cands []int, stepFrac, work float64, h []float64) int, mask map[string]bool) (string, []ActionRecord, bool) {
	work := ir.CloneFunc(input)
	var acts []ActionRecord
	for t := 0; t < m.Cap.MaxSteps; t++ {
		stepFrac := float64(t) / float64(m.Cap.MaxSteps)
		cands, wf := m.available(work, mask)
		pick := choose(cands, stepFrac, wf, h)
		acts = append(acts, ActionRecord{Cands: cands, StepFrac: stepFrac, Work: wf, Chosen: pick})
		a := cands[pick]
		switch {
		case a == m.ActStop():
			return ir.CanonicalText(work), acts, false
		case a == m.ActFormatBreak():
			return ir.CanonicalText(work), acts, true
		default:
			r := m.Rules[a]
			if r.Kind == rewrite.KindCorrupt {
				return r.ApplyText(ir.CanonicalText(work), actionRand(h, t)), acts, false
			}
			r.Apply(work, actionRand(h, t))
		}
	}
	return ir.CanonicalText(work), acts, false
}

// available asks each rule once whether it applies to f and answers
// both things a step needs: the available actions — every applicable
// rule not in mask (corruptions always apply), STOP, and format-break —
// and the work feature, how much real work remains on f, masked or
// not, saturating at 1.
func (m *Model) available(f *ir.Function, mask map[string]bool) (cands []int, work float64) {
	n := 0
	for i, r := range m.Rules {
		masked := mask[r.Name]
		isWork := doesWork(r)
		if (masked && !isWork) || !r.Applicable(f) {
			continue
		}
		if !masked {
			cands = append(cands, i)
		}
		if isWork {
			n++
		}
	}
	cands = append(cands, m.ActStop(), m.ActFormatBreak())
	return cands, min(float64(n)/2, 1)
}

// doesWork reports whether r is real work: a sound rule other than the
// cosmetic reorder. The work feature counts these; the teacher picks them.
func doesWork(r *rewrite.Rule) bool {
	return r.Kind == rewrite.KindSound && r.Name != rewrite.CosmeticReorder
}

func (m *Model) selfCorrectEnabled() bool {
	return sigmoid(m.SelfCorrectGate) > 0.5
}

// actionRand derives a deterministic RNG for a rule application from
// the input hash features and step (so greedy decoding is fully
// reproducible).
func actionRand(h []float64, step int) *rand.Rand {
	seed := int64(step + 1)
	for _, v := range h {
		seed = seed*1000003 + int64(v*4096)
	}
	return rand.New(&lazySource{seed: seed})
}

// lazySource is rand.NewSource(seed), seeded at its first draw: most
// rule applications never draw, and seeding math/rand's 607-word
// generator is most of what one costs. It is a rand.Source64, so
// rand.New draws from it exactly as from the source itself, and the
// stream is the same.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }
