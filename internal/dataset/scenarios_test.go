package dataset

import (
	"math/rand"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
)

// TestScenarioTaxonomyCovered pins the registry taxonomy: every
// template carries a known scenario label and every label has at
// least two templates, so no scenario can silently vanish from
// generated corpora.
func TestScenarioTaxonomyCovered(t *testing.T) {
	known := map[string]bool{
		ScenarioScalar:      true,
		ScenarioControlFlow: true,
		ScenarioLoop:        true,
		ScenarioWideInt:     true,
		ScenarioAdversarial: true,
	}
	counts := map[string]int{}
	for _, tm := range templates() {
		if !known[tm.scenario] {
			t.Errorf("template %s: unknown scenario %q", tm.name, tm.scenario)
		}
		counts[tm.scenario]++
	}
	for sc := range known {
		if counts[sc] < 2 {
			t.Errorf("scenario %s has %d templates, want >= 2", sc, counts[sc])
		}
	}
}

// TestScenarioFamiliesParseAndSelfVerify is the scenario-corpus
// acceptance test: every generated sample's printed O0 and Ref text
// must re-parse, and the O0 function must prove self-equivalent under
// the default verification limits (families whose shapes the bounded
// verifier cannot even re-prove against themselves would poison every
// downstream perf claim).
func TestScenarioFamiliesParseAndSelfVerify(t *testing.T) {
	samples, rep, err := GenerateReport(Config{Seed: 417, N: 72})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, s := range samples {
		if s.Scenario == "" {
			t.Fatalf("sample %s has no scenario tag", s.Name)
		}
		seen[s.Scenario]++
		if _, err := ir.ParseFunc(s.O0Text); err != nil {
			t.Errorf("%s: O0 text does not re-parse: %v", s.Name, err)
		}
		if _, err := ir.ParseFunc(s.RefText); err != nil {
			t.Errorf("%s: Ref text does not re-parse: %v", s.Name, err)
		}
		if res := alive.VerifyFuncs(s.O0, s.O0, alive.DefaultOptions()); res.Verdict != alive.Equivalent {
			t.Errorf("%s (%s): O0 not self-equivalent: %s %s", s.Name, s.Scenario, res.Verdict, res.Diag)
		}
	}
	// 72 samples over 36 balanced templates = 2 per template, so every
	// scenario must appear with its full registry share.
	for _, ss := range rep.scenarios() {
		if seen[ss.scenario] != ss.kept {
			t.Errorf("scenario %s: report kept %d, corpus carries %d", ss.scenario, ss.kept, seen[ss.scenario])
		}
		if ss.kept == 0 {
			t.Errorf("scenario %s generated no samples", ss.scenario)
		}
	}
}

// TestScenarioTagsHitGenReport pins the tag flow template → report:
// per-template stats carry the registry's scenario, and the scenario
// rollup sums its templates exactly.
func TestScenarioTagsHitGenReport(t *testing.T) {
	_, rep, err := GenerateReport(Config{Seed: 5, N: 40, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, tm := range templates() {
		byName[tm.name] = tm.scenario
	}
	for _, ts := range rep.templates {
		if ts.scenario != byName[ts.name] {
			t.Errorf("template %s: report scenario %q, registry says %q", ts.name, ts.scenario, byName[ts.name])
		}
	}
	rollup := map[string]int{}
	for _, ts := range rep.templates {
		rollup[ts.scenario] += ts.kept
	}
	for _, ss := range rep.scenarios() {
		if ss.kept != rollup[ss.scenario] {
			t.Errorf("scenario %s rollup kept %d, templates sum %d", ss.scenario, ss.kept, rollup[ss.scenario])
		}
	}
	if !strings.Contains(rep.String(), "scenario") {
		t.Error("report text is missing the scenario rollup")
	}
}

// TestScenarioTagsSurviveSplit pins the tag flow through Split: both
// sides of a split carry tagged samples, their scenario counts sum to
// the corpus totals, and a corpus this size loses no scenario on
// either side.
func TestScenarioTagsSurviveSplit(t *testing.T) {
	samples, err := Generate(Config{Seed: 23, N: 72, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := Split(samples, 0.3, 77)
	if err != nil {
		t.Fatal(err)
	}
	total := scenarioCounts(samples)
	tc, vc := scenarioCounts(train), scenarioCounts(val)
	for sc, n := range total {
		if tc[sc]+vc[sc] != n {
			t.Errorf("scenario %s: %d train + %d val != %d total", sc, tc[sc], vc[sc], n)
		}
		if tc[sc] == 0 || vc[sc] == 0 {
			t.Errorf("scenario %s missing from a split side (train %d, val %d)", sc, tc[sc], vc[sc])
		}
	}
}

// hasBackedge reports whether any terminator targets a block at or
// before its own position in layout order — the loop shape.
func hasBackedge(f *ir.Function) bool {
	pos := map[*ir.Block]int{}
	for i, b := range f.Blocks {
		pos[b] = i
	}
	for i, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, succ := range in.Succs {
				if pos[succ] <= i {
					return true
				}
			}
		}
	}
	return false
}

// TestScenarioShapesAreStructural spot-checks that the new families
// deliver the structures their labels promise: control-flow samples
// are multi-block, loop samples have a backedge, wide-int samples mix
// widths, and the
// poison-shift family produces genuinely out-of-range shift amounts.
func TestScenarioShapesAreStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	outOfRange := false
	for _, tm := range templates() {
		for i := 0; i < 6; i++ {
			m, err := lower(tm.gen(rng, i))
			if err != nil {
				t.Fatalf("%s: lower: %v", tm.name, err)
			}
			f := m.Funcs[0]
			text := ir.FuncString(f)
			switch tm.name {
			case "nested-branch", "diamond-ladder", "branch-ladder":
				if len(f.Blocks) < 4 {
					t.Errorf("%s: %d blocks, want a multi-block CFG:\n%s", tm.name, len(f.Blocks), text)
				}
			case "loop-branch", "loop-double", "loop-shift":
				if !hasBackedge(f) {
					t.Errorf("%s: no backedge in the CFG:\n%s", tm.name, text)
				}
			case "bool-mix":
				if !strings.Contains(text, "i1") {
					t.Errorf("%s: no i1 values:\n%s", tm.name, text)
				}
			case "width-mix", "narrow-rescue":
				if !strings.Contains(text, "trunc") || !strings.Contains(text, "ext") {
					t.Errorf("%s: no width mixing:\n%s", tm.name, text)
				}
			case "poison-shift":
				var maxShift, bits int64
				f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
					if in.Op == ir.OpShl || in.Op == ir.OpLShr || in.Op == ir.OpAShr {
						if it, ok := in.Ty.(ir.IntType); ok {
							bits = int64(it.Bits)
						}
						if c, ok := in.Args[1].(*ir.Const); ok && int64(c.Val) > maxShift {
							maxShift = int64(c.Val)
						}
					}
				})
				if maxShift >= bits && bits > 0 {
					outOfRange = true
				}
			case "dead-store":
				if strings.Count(text, "store") < 3 {
					t.Errorf("%s: no dead-store chain:\n%s", tm.name, text)
				}
			}
		}
	}
	if !outOfRange {
		t.Error("poison-shift never produced an at-or-over-width shift in 6 instances")
	}
}

// scenarioCounts tallies samples by scenario label: the mix a split
// side actually carries.
func scenarioCounts(samples []*Sample) map[string]int {
	out := map[string]int{}
	for _, s := range samples {
		out[s.Scenario]++
	}
	return out
}

// registrySize is the number of templates. Corpus tests in ir, vcache,
// interp, instcombine and seqopt size their slices by it (their
// datasetTemplates constant): a template added here is added there.
const registrySize = 36

// TestOneRoundCoversEveryTemplate: a corpus of one sample per template
// holds every template, the slice other packages' corpus tests draw.
func TestOneRoundCoversEveryTemplate(t *testing.T) {
	if n := len(templates()); n != registrySize {
		t.Fatalf("%d templates, want %d: update registrySize and every datasetTemplates constant", n, registrySize)
	}
	for _, seed := range []int64{1, 2, 3} {
		samples, err := Generate(Config{Seed: seed, N: registrySize, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range samples {
			seen[s.Template] = true
		}
		for _, tpl := range templates() {
			if !seen[tpl.name] {
				t.Errorf("seed %d: template %s produced no sample", seed, tpl.name)
			}
		}
	}
}
