package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/warmup_golden.json from this tree's warm-up")

// warmupGolden is one warm-up's fingerprint: per sample, the rules the
// teacher picks (STOP as "stop") and a sha256 over every field of its
// records, float64s as bits; the number of behaviour-cloning steps;
// and the warmed model's bytes as `train -save` writes them.
type warmupGolden struct {
	Teacher  []teacherGolden `json:"teacher"`
	Failures int             `json:"failures"`
	Steps    int             `json:"steps"`
	Model    json.RawMessage `json:"model"`
}

type teacherGolden struct {
	Sample  string   `json:"sample"`
	Picks   []string `json:"picks"`
	Records string   `json:"records_sha256"`
}

func recordsDigest(recs []policy.ActionRecord) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, r := range recs {
		put(uint64(len(r.Cands)))
		for _, a := range r.Cands {
			put(uint64(a))
		}
		put(math.Float64bits(r.StepFrac))
		put(math.Float64bits(r.Work))
		put(uint64(r.Chosen))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWarmUpMatchesGolden pins the supervised stage bit for bit over a
// fixed-seed corpus: the teacher's records for every sample, the step
// count, and the bytes of a model warmed on the samples and on the
// failures of a two-step Model Zero harvest. A refactor of the teacher
// or the warm-up must leave it untouched; only a deliberate change of
// either runs it with -update. It was written in internal/sft, by the
// teacher's own loop, before the teacher became policy.Model.Teach.
func TestWarmUpMatchesGolden(t *testing.T) {
	const path = "testdata/warmup_golden.json"
	samples := warmupCorpus(t, 16)
	m := policy.New(policy.CapQwen3B, 5)

	zero := m.Clone()
	tr := grpo.NewTrainer(oracle.NewStack(oracle.Config{}), zero, samples, grpo.DefaultConfig(), 11)
	tr.CollectFailures = true
	if err := tr.TrainCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	got := warmupGolden{Failures: len(tr.Failures)}
	for _, s := range samples {
		_, recs := m.Teach(s.O0, m.HashFeatures(ir.CanonicalText(s.O0)))
		tg := teacherGolden{Sample: s.Name, Records: recordsDigest(recs)}
		for _, r := range recs {
			name := "stop"
			if a := r.Cands[r.Chosen]; a < len(m.Rules) {
				name = m.Rules[a].Name
			}
			tg.Picks = append(tg.Picks, name)
		}
		got.Teacher = append(got.Teacher, tg)
	}
	steps, err := WarmUpCtx(context.Background(), m, samples, tr.Failures, 3)
	if err != nil {
		t.Fatal(err)
	}
	got.Steps = steps
	if got.Model, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotBytes = append(gotBytes, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gotBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, want) {
		t.Errorf("warm-up moved from %s:\n got %s", path, gotBytes)
	}
}
