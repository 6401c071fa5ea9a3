package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"veriopt/internal/dataset"
)

// rolloutBatchDigest is the SHA-256 of every rollout's action sequence
// and output text over the fixed Generate batch below. A change to how
// an action is chosen, how a rule draws from its RNG, or what a rollout
// prints moves it.
const rolloutBatchDigest = "d4fe1dff3b32babb2f12f7736fc72857ac2dc6c909d79bfce247621135de20c1"

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
				{Temperature: 1, Rng: rng},
				{Temperature: 1.5, Rng: rng, Augmented: true},
			} {
				ep := m.Generate(s.O0, opts)
				acts(ep.Actions)
				acts(ep.CorrectionActs)
				text(ep.AttemptText)
				correction := "" // the correction's own text: FinalText when one ran
				if ep.CorrectionUsed {
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
