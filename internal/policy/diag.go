package policy

import (
	"math/rand"
	"strings"

	"veriopt/internal/alive"
	"veriopt/internal/rewrite"
)

// DiagClass is the model's predicted verification outcome for its own
// attempt — the Alive2 emulation of Fig. 2.
type DiagClass int

// Predicted outcome classes.
const (
	DiagOK DiagClass = iota
	DiagSyntaxError
	DiagSemanticError
	numDiagClasses
)

var diagClassNames = [...]string{"ok", "syntax_error", "semantic_error"}

// String returns a stable class name.
func (c DiagClass) String() string { return diagClassNames[c] }

// Semantic-error subclasses, matching the verifier's diagnostic kinds.
const (
	subValueMismatch = iota
	subMorePoisonous
	subUB
	subCallMismatch
	numSubclasses
)

var subclassMessages = [...]string{
	"ERROR: Value mismatch",
	"ERROR: Target is more poisonous than source",
	"ERROR: Target has undefined behavior where source does not",
	"ERROR: Call trace differs between source and target",
}

// DiagRecord is one emitted self-diagnosis: the predicted class, the
// message text (scored by BLEU against the real verifier output), and
// the bookkeeping needed for policy gradients.
type DiagRecord struct {
	PredictedClass DiagClass
	Message        string
	blamedRules    []string

	// Features is the classifier input the class was drawn from, for
	// gradient computation.
	Features []float64
}

// DiagHead is the linear classifier emulating Alive2 feedback.
type DiagHead struct {
	// W[class][feature] over the feature vector built by DiagFeatures.
	W [][]float64
	// Sub[subclass][ruleID] associates blamed rules with semantic
	// subclasses.
	Sub [][]float64

	nFeatures int
	nRules    int
}

func newDiagHead(cap Capacity, rng *rand.Rand) *DiagHead {
	nf := 5 + cap.HashFeatures
	nr := len(rewrite.All())
	d := &DiagHead{nFeatures: nf, nRules: nr}
	d.W = make([][]float64, numDiagClasses)
	for c := range d.W {
		d.W[c] = make([]float64, nf)
		for j := range d.W[c] {
			d.W[c][j] = rng.NormFloat64() * 0.1
		}
	}
	// The untrained head is biased toward predicting OK — the base
	// model has no error-recognition ability (paper §III-C2).
	d.W[DiagOK][0] = 1.5
	d.Sub = make([][]float64, numSubclasses)
	for s := range d.Sub {
		d.Sub[s] = make([]float64, nr)
	}
	return d
}

func (d *DiagHead) clone() *DiagHead {
	return &DiagHead{W: cloneRows(d.W), Sub: cloneRows(d.Sub), nFeatures: d.nFeatures, nRules: d.nRules}
}

// DiagFeatures builds the classifier input from the attempt's
// rollout: [bias, usedCorrupt, usedUnsound, usedSoundOrExtra,
// trajectoryLenFrac, h...].
func (m *Model) DiagFeatures(r Rollout) []float64 {
	kinds := map[rewrite.Kind]int{}
	for _, rec := range r.Actions {
		a := rec.Cands[rec.Chosen]
		if a < len(m.Rules) {
			kinds[m.Rules[a].Kind]++
		}
	}
	f := make([]float64, 0, 5+len(r.H))
	f = append(f, 1)
	f = append(f, b2f(kinds[rewrite.KindCorrupt] > 0))
	f = append(f, b2f(kinds[rewrite.KindUnsound] > 0))
	f = append(f, b2f(kinds[rewrite.KindSound]+kinds[rewrite.KindExtra] > 0))
	f = append(f, float64(len(r.Actions))/float64(m.Cap.MaxSteps))
	f = append(f, r.H...)
	return f
}

// diagnose emits the model's self-diagnosis of its attempt's rollout.
// rng samples the class; nil takes the most probable one.
func (m *Model) diagnose(r Rollout, rng *rand.Rand) *DiagRecord {
	f := m.DiagFeatures(r)
	probs := m.Diag.ClassProbs(f)
	cls := 0
	if rng != nil {
		cls = sampleIdx(probs, rng)
	} else {
		for c := 1; c < len(probs); c++ {
			if probs[c] > probs[cls] {
				cls = c
			}
		}
	}
	rec := &DiagRecord{PredictedClass: DiagClass(cls), Features: f}
	// Blame the suspicious rules in the trajectory.
	for _, ar := range r.Actions {
		a := ar.Cands[ar.Chosen]
		if a < len(m.Rules) {
			k := m.Rules[a].Kind
			if k == rewrite.KindUnsound || k == rewrite.KindCorrupt {
				rec.blamedRules = append(rec.blamedRules, m.Rules[a].Name)
			}
		}
	}
	switch rec.PredictedClass {
	case DiagOK:
		rec.Message = "\n; Alive2: Transformation seems to be correct!"
	case DiagSyntaxError:
		rec.Message = "\n; Alive2: " + alive.DiagParsePrefix + "invalid instruction"
	case DiagSemanticError:
		msg := subclassMessages[m.Diag.bestSubclass(m, r.Actions)]
		if len(rec.blamedRules) > 0 {
			msg += " (suspect: " + strings.Join(rec.blamedRules, ", ") + ")"
		}
		rec.Message = "\n; Alive2: " + msg
	}
	return rec
}

// bestSubclass picks the semantic subclass most associated with the
// rules used in the trajectory.
func (d *DiagHead) bestSubclass(m *Model, acts []ActionRecord) int {
	scores := make([]float64, numSubclasses)
	for _, ar := range acts {
		a := ar.Cands[ar.Chosen]
		if a < len(m.Rules) {
			for s := 0; s < numSubclasses; s++ {
				scores[s] += d.Sub[s][a]
			}
		}
	}
	best := 0
	for s := 1; s < numSubclasses; s++ {
		if scores[s] > scores[best] {
			best = s
		}
	}
	return best
}

// SubclassForDiag maps a real verifier diagnostic to the subclass
// index whose template matches it best (training target for Sub).
func SubclassForDiag(diag string) int {
	switch {
	case strings.Contains(diag, "poisonous"):
		return subMorePoisonous
	case strings.Contains(diag, "undefined behavior"):
		return subUB
	case strings.Contains(diag, "Call") || strings.Contains(diag, "call"):
		return subCallMismatch
	default:
		return subValueMismatch
	}
}

// BumpSub strengthens the association between action a and the given
// semantic-error subclass (perceptron-style supervised update).
func (d *DiagHead) BumpSub(sub, a int, lr float64) {
	if sub < len(d.Sub) && a < len(d.Sub[sub]) {
		d.Sub[sub][a] += lr
	}
}
