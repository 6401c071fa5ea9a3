package seqopt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*_golden.json from this tree's Beam and Model")

// beamGolden is one search's observable outcome. Fn is the sha256 of
// the winner's canonical text.
type beamGolden struct {
	Name     string   `json:"name"`
	Sequence []string `json:"sequence"`
	Fn       string   `json:"fn"`
	States   int      `json:"states"`
	Queries  int      `json:"queries"`
}

// TestBeamMatchesGolden pins Beam's whole observable result on a fixed
// 64-input list. The golden was written by this test (-update) at the
// commit before pass application and state keys stopped cloning, so
// any change to which step fires first, to state dedupe, or to
// canonical text shows here as a diff against that commit.
func TestBeamMatchesGolden(t *testing.T) {
	const path = "testdata/beam_golden.json"
	samples, err := dataset.Generate(dataset.Config{Seed: 41, N: 64, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]beamGolden, len(samples))
	for i, s := range samples {
		res, err := Beam(context.Background(), s.O0, SearchConfig{Oracle: testStack})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(ir.CanonicalText(res.Fn)))
		seq := res.Sequence
		if seq == nil {
			seq = []string{}
		}
		got[i] = beamGolden{Name: s.Name, Sequence: seq, Fn: hex.EncodeToString(sum[:]),
			States: res.States, Queries: res.Queries}
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []beamGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d searches, ran %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("search %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestModelBytesMatchGolden pins what `train -workload=passes -save`
// writes: json.Marshal of a fixed-seed Model, byte for byte — so the
// keys stay exactly Passes, HashFeatures, MaxLen, MaxBias, B, S, N in
// that order. The golden was written by this test (-update) at the
// commit before Model's parameter block became policy.Linear.
func TestModelBytesMatchGolden(t *testing.T) {
	const path = "testdata/model_golden.json"
	got, err := json.Marshal(NewModel(5))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("model bytes changed:\n got %s\nwant %s", got, want)
	}
	var back Model
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(&back); !bytes.Equal(again, want) {
		t.Errorf("model does not round-trip:\n got %s\nwant %s", again, want)
	}
}
