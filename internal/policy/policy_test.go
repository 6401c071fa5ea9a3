package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

func testFn(t *testing.T) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunc(`define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = load i32, ptr %2
  %4 = mul i32 %3, 4
  %5 = add i32 %4, 0
  ret i32 %5
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGreedyDeterministic(t *testing.T) {
	m := New(CapQwen3B, 1)
	f := testFn(t)
	a := m.Generate(f, GenOptions{})
	b := m.Generate(f, GenOptions{})
	if a.FinalText != b.FinalText {
		t.Error("greedy decoding not deterministic")
	}
	if len(a.Actions) != len(b.Actions) {
		t.Error("trajectories differ")
	}
}

func TestGenerationNeverMutatesInput(t *testing.T) {
	m := New(CapQwen3B, 2)
	f := testFn(t)
	before := ir.FuncString(f)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		m.Generate(f, GenOptions{Rng: rng, Augmented: i%2 == 0})
	}
	if ir.FuncString(f) != before {
		t.Error("input function mutated by generation")
	}
}

func TestSoftmaxIsDistribution(t *testing.T) {
	m := New(CapQwen3B, 1)
	h := m.HashFeatures("some input")
	check := func(stepFracRaw, workRaw uint8) bool {
		stepFrac := float64(stepFracRaw) / 255
		work := float64(workRaw) / 255
		cands := []int{0, 1, 2, m.ActStop(), m.ActFormatBreak()}
		probs := m.Softmax(cands, stepFrac, work, h)
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHashFeaturesNormalizedAndStable(t *testing.T) {
	m := New(CapQwen3B, 1)
	h1 := m.HashFeatures("abc")
	h2 := m.HashFeatures("abc")
	h3 := m.HashFeatures("abd")
	norm := 0.0
	same, diff := true, false
	for j := range h1 {
		norm += h1[j] * h1[j]
		same = same && h1[j] == h2[j]
		diff = diff || h1[j] != h3[j]
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("||h|| = %v, want 1", math.Sqrt(norm))
	}
	if !same {
		t.Error("hash features not stable")
	}
	if !diff {
		t.Error("hash features identical for different inputs")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(CapQwen3B, 1)
	c := m.Clone()
	c.B[0] += 100
	c.Diag.W[0][0] += 100
	if m.B[0] == c.B[0] || m.Diag.W[0][0] == c.Diag.W[0][0] {
		t.Error("clone shares parameter storage")
	}
}

func TestClampEnforcesBudget(t *testing.T) {
	m := New(CapQwen3B, 1)
	for a := range m.B {
		m.B[a] = 100
		m.S[a] = -100
	}
	m.Clamp()
	lim := m.Cap.MaxBias
	for a := range m.B {
		if m.B[a] != lim || m.S[a] != -lim {
			t.Fatalf("clamp failed: B=%v S=%v", m.B[a], m.S[a])
		}
	}
}

func TestAugmentedModeProducesDiagnosis(t *testing.T) {
	m := New(CapQwen3B, 4)
	f := testFn(t)
	ep := m.Generate(f, GenOptions{Augmented: true})
	if ep.Diag == nil {
		t.Fatal("augmented generation without diagnosis")
	}
	comp := completion(ep)
	if ep.FormatOK {
		for _, want := range []string{"<think>", "</think>", "<answer>", "</answer>"} {
			if !contains(comp, want) {
				t.Errorf("completion missing %s:\n%s", want, comp)
			}
		}
	}
}

func TestMaskRulesRespected(t *testing.T) {
	m := New(CapQwen3B, 1)
	f := testFn(t)
	mask := map[string]bool{}
	for _, r := range m.Rules {
		if r.Kind != rewrite.KindSound {
			mask[r.Name] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	h := m.HashFeatures(ir.CanonicalText(f))
	for i := 0; i < 10; i++ {
		// The correction attempt's rollout, the one that takes a mask.
		_, acts, _ := m.rollout(f, h, chooser(m, rng), mask)
		kinds := (&Episode{Actions: acts}).usedRuleKinds(m)
		if kinds[rewrite.KindUnsound] > 0 || kinds[rewrite.KindCorrupt] > 0 || kinds[rewrite.KindExtra] > 0 {
			t.Fatalf("masked rule used: %v", kinds)
		}
	}
}

// chooser is Generate's pick at a step: the model's Choose, sampled by
// rng, or greedy when rng is nil.
func chooser(m *Model, rng *rand.Rand) func([]int, float64, float64, []float64) int {
	return func(cands []int, stepFrac, work float64, h []float64) int {
		return m.Choose(cands, stepFrac, work, h, rng)
	}
}

// saltedEpisode is Generate's generic-prompt path with salt prepended
// to the text the hash features are taken of.
func saltedEpisode(m *Model, f *ir.Function, salt string) *Episode {
	text := ir.CanonicalText(f)
	final, acts, _ := m.rollout(f, m.HashFeatures(salt+text), chooser(m, nil), nil)
	return &Episode{Actions: acts, FinalText: final}
}

func TestBaseModelProfileRoughlyTableI(t *testing.T) {
	// The untrained model's first decisions must be dominated by
	// immediate stops (copies), with corruption and sound work as
	// minority modes — the Table I calibration target.
	m := New(CapQwen3B, 1)
	f := testFn(t)
	copies, corrupts, sounds := 0, 0, 0
	total := 120
	for i := 0; i < total; i++ {
		// Different pseudo-inputs via a salt (each salt changes the
		// hash features exactly as a different input would).
		salt := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		ep := saltedEpisode(m, f, salt)
		kinds := ep.usedRuleKinds(m)
		switch {
		case kinds[rewrite.KindCorrupt] > 0:
			corrupts++
		case kinds[rewrite.KindSound]+kinds[rewrite.KindExtra] > 0:
			sounds++
		case ir.FingerprintText(ep.FinalText) == ir.FingerprintText(ir.CanonicalText(f)):
			copies++
		}
	}
	copyFrac := float64(copies) / float64(total)
	if copyFrac < 0.30 || copyFrac > 0.85 {
		t.Errorf("copy fraction %.2f outside calibration band", copyFrac)
	}
	if corrupts == 0 {
		t.Error("base model never corrupts — Table I syntax-error mass missing")
	}
	if sounds == 0 {
		t.Error("base model never optimizes — Table I different-correct mass missing")
	}
}

func TestCapacityOrderingReducesNoise(t *testing.T) {
	if CapQwen32B.NoiseScale >= CapQwen3B.NoiseScale {
		t.Error("larger capacity should have less noise")
	}
	if CapQwen05B.NoiseScale <= CapQwen3B.NoiseScale {
		t.Error("smaller capacity should have more noise")
	}
	if CapQwen32B.MaxBias <= CapQwen05B.MaxBias {
		t.Error("larger capacity should have a larger parameter budget")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestModelSerializationRoundTrip(t *testing.T) {
	m := New(CapQwen3B, 5)
	m.B[0] = 1.234
	m.SelfCorrectGate = 0.5
	blob, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Model{}
	if err := restored.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	if restored.B[0] != m.B[0] || restored.SelfCorrectGate != m.SelfCorrectGate {
		t.Error("parameters not restored")
	}
	if restored.Cap != m.Cap {
		t.Errorf("capacity not restored: %+v vs %+v", restored.Cap, m.Cap)
	}
	// The restored model must generate identically.
	f := mustTestFn(t)
	a := m.Generate(f, GenOptions{})
	b := restored.Generate(f, GenOptions{})
	if a.FinalText != b.FinalText {
		t.Error("restored model generates differently")
	}
}

func TestModelDeserializationRejectsBadData(t *testing.T) {
	m := &Model{}
	if err := m.UnmarshalJSON([]byte(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if err := m.UnmarshalJSON([]byte(`{"version": 1, "rule_names": ["no-such-rule"]}`)); err == nil {
		t.Error("unknown rule accepted")
	}
	if err := m.UnmarshalJSON([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func mustTestFn(t *testing.T) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunc(`define i32 @s(i32 noundef %0) {
  %2 = mul i32 %0, 4
  %3 = add i32 %2, 0
  ret i32 %3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// usedRuleKinds summarizes which rule kinds the final trajectory
// applied (the correction's trajectory when used, else the attempt's).
func (ep *Episode) usedRuleKinds(m *Model) map[rewrite.Kind]int {
	acts := ep.Actions
	if ep.CorrectionUsed {
		acts = ep.CorrectionActs
	}
	out := map[rewrite.Kind]int{}
	for _, rec := range acts {
		a := rec.Cands[rec.Chosen]
		if a < len(m.Rules) {
			out[m.Rules[a].Kind]++
		}
	}
	return out
}
