package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"veriopt/internal/dataset"
)

// rolloutBatchDigest is the SHA-256 of every rollout's action sequence
// and output text over the fixed Generate batch below. A change to how
// an action is chosen, how a rule draws from its RNG, or what a rollout
// prints moves it.
const rolloutBatchDigest = "48e34ad9541100492067b7ac5610b215ccd03e8930ad138e68b7e21fe9a4a189"

// TestRolloutBatchDigest runs a fixed batch of generations (two
// policies, greedy and sampled, generic and augmented prompts) and
// hashes each episode's candidates, choices, features and texts.
func TestRolloutBatchDigest(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 11, N: 48})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	num := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	acts := func(recs []ActionRecord) {
		num(uint64(len(recs)))
		for _, r := range recs {
			num(uint64(len(r.Cands)))
			for _, c := range r.Cands {
				num(uint64(c))
			}
			num(uint64(r.Chosen))
			num(math.Float64bits(r.StepFrac))
			num(math.Float64bits(r.Work))
		}
	}
	text := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	rollouts := 0
	for _, seed := range []int64{5, 9} {
		m := New(CapQwen3B, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, s := range samples {
			for _, opts := range []GenOptions{
				{},
				{Augmented: true},
				{Rng: rng},
				{Rng: rng, Augmented: true},
			} {
				ep := m.Generate(s.O0, opts)
				if opts.Augmented {
					checkCorrection(t, s.Name, m, ep)
				}
				acts(ep.Actions)
				acts(ep.Correction.Actions)
				text(ep.AttemptText)
				correction := "" // the correction's own text: FinalText when one ran
				if len(ep.Correction.Actions) > 0 {
					correction = ep.FinalText
				}
				text(correction)
				text(completion(ep))
				rollouts++
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != rolloutBatchDigest {
		t.Fatalf("%d rollouts hash to %s, want %s", rollouts, got, rolloutBatchDigest)
	}
}

// TestNilRngDecodesGreedily: a generation without an Rng is the greedy
// decode, in the generic and the augmented prompt alike. Every action
// of the attempt and of the correction is Choose's greedy pick, the
// diagnosis is the most probable class, and the augmented attempt is
// the generic prompt's whole episode. Each policy runs as built, which
// never corrects, and then with its self-correction gate open and its
// diagnosis leaning toward a semantic error, so that corrections run.
func TestNilRngDecodesGreedily(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 11, N: 48})
	if err != nil {
		t.Fatal(err)
	}
	greedy := func(what string, m *Model, ro Rollout) {
		t.Helper()
		for i, r := range ro.Actions {
			if want := m.Choose(r.Cands, r.StepFrac, r.Work, ro.H, nil); r.Chosen != want {
				t.Fatalf("%s step %d chose %d of %v, greedy is %d", what, i, r.Chosen, r.Cands, want)
			}
		}
	}
	corrections := 0
	for _, seed := range []int64{5, 9} {
		m := New(CapQwen3B, seed)
		for _, open := range []bool{false, true} {
			if open {
				m.SelfCorrectGate = 2
				m.Diag.W[DiagSemanticError][0] += 2 // the bias feature
			}
			for _, s := range samples {
				generic := m.Generate(s.O0, GenOptions{})
				ep := m.Generate(s.O0, GenOptions{Augmented: true})
				greedy(s.Name+" attempt", m, ep.Rollout)
				greedy(s.Name+" correction", m, ep.Correction)
				checkCorrection(t, s.Name, m, ep)
				if ep.AttemptText != generic.FinalText || !reflect.DeepEqual(ep.Actions, generic.Actions) {
					t.Fatalf("%s: the augmented attempt is not the generic greedy decode", s.Name)
				}
				probs := m.Diag.ClassProbs(ep.Diag.Features)
				best := 0
				for c := range probs {
					if probs[c] > probs[best] {
						best = c
					}
				}
				if int(ep.Diag.PredictedClass) != best {
					t.Fatalf("%s: diagnosed class %d of %v, the most probable is %d", s.Name, ep.Diag.PredictedClass, probs, best)
				}
				if len(ep.Correction.Actions) > 0 {
					corrections++
				}
			}
		}
	}
	if corrections == 0 {
		t.Fatal("no augmented episode ran a correction")
	}
}

// checkCorrection holds an augmented episode to what a correction is:
// one ran (its rollout recorded a decision) exactly when the diagnosis
// is not OK and m's self-correction gate is open, and when none ran its
// rollout has no features and the answer is the attempt.
func checkCorrection(t *testing.T, name string, m *Model, ep *Episode) {
	t.Helper()
	gate := m.selfCorrectEnabled()
	ran := len(ep.Correction.Actions) > 0
	if want := ep.Diag.PredictedClass != DiagOK && gate; ran != want {
		t.Fatalf("%s: diagnosed %v with the gate open=%v, yet a correction ran=%v", name, ep.Diag.PredictedClass, gate, ran)
	}
	if ran {
		return
	}
	if ep.Correction.H != nil {
		t.Fatalf("%s: no correction ran, yet it has features %v", name, ep.Correction.H)
	}
	if ep.FinalText != ep.AttemptText {
		t.Fatalf("%s: no correction ran, yet the answer is not the attempt", name)
	}
}

// completion renders the episode in the paper's prompt-output format:
// generic (answer only) or augmented (<think> with attempt and
// diagnosis, then <answer>).
func completion(ep *Episode) string {
	var sb strings.Builder
	if ep.Diag != nil {
		sb.WriteString("<think>\n")
		sb.WriteString(ep.AttemptText)
		sb.WriteString(ep.Diag.Message)
		sb.WriteString("\n</think>\n")
	}
	if ep.FormatOK {
		sb.WriteString("<answer>\n")
		sb.WriteString(ep.FinalText)
		sb.WriteString("</answer>\n")
	} else {
		sb.WriteString(ep.FinalText)
	}
	return sb.String()
}
