package ir_test

import (
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

// TestPrinterMatchesReferenceOnCorpus: every dataset template, three
// seeds, the O0 function and its reference — as built, and as parsed
// back from their printed texts (what a server keys).
func TestPrinterMatchesReferenceOnCorpus(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range []int64{1, 2, 3} {
		samples, err := dataset.Generate(dataset.Config{Seed: seed, N: len(dataset.Templates()), SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			seen[s.Template] = true
			ir.CheckPrinter(t, s.O0)
			ir.CheckPrinter(t, s.Ref)
			for _, text := range []string{s.O0Text, s.RefText} {
				f, err := ir.ParseFunc(text)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				ir.CheckPrinter(t, f)
			}
		}
	}
	for _, tpl := range dataset.Templates() {
		if !seen[tpl.Name] {
			t.Errorf("template %s produced no sample", tpl.Name)
		}
	}
}
