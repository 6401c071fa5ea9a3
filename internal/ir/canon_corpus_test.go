package ir_test

import (
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

// TestPrinterMatchesReferenceOnCorpus: every dataset template, three
// seeds, the O0 function and its reference — as built, and as parsed
// back from their printed texts (what a server keys) — print as the
// reference printer prints them, and their operands and successors are
// found where the reference layout scan finds them.
func TestPrinterMatchesReferenceOnCorpus(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range []int64{1, 2, 3} {
		samples, err := dataset.Generate(dataset.Config{Seed: seed, N: datasetTemplates, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			seen[s.Template] = true
			for _, f := range []*ir.Function{s.O0, s.Ref} {
				ir.CheckPrinter(t, f)
				ir.CheckPositions(t, f)
			}
			for _, text := range []string{s.O0Text, s.RefText} {
				f, err := ir.ParseFunc(text)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				ir.CheckPrinter(t, f)
				ir.CheckPositions(t, f)
			}
		}
	}
	if len(seen) != datasetTemplates {
		t.Errorf("%d of the %d templates produced a sample", len(seen), datasetTemplates)
	}
}

// datasetTemplates is the size of dataset's template registry
// (pinned by dataset's TestOneRoundCoversEveryTemplate): a corpus of
// k*datasetTemplates samples holds every template k times.
const datasetTemplates = 36
