package seqopt

import (
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/beam_golden.json from this tree's Beam")

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
		res, err := Beam(context.Background(), s.O0, SearchConfig{})
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
