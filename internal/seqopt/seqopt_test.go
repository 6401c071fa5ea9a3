package seqopt

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
)

// testStack is the stack the package's tests share where they do not
// build their own, so verdicts proved by one test are cache hits for
// the next.
var testStack = oracle.NewStack(oracle.Config{})

func corpus(t *testing.T, n int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 31, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestRegistryStable pins the action-space ordering: policy indices
// and search tie-breaking depend on it.
func TestRegistryStable(t *testing.T) {
	want := []string{"combine", "forward-loads", "drop-dead-allocas", "instcombine",
		"mem2reg", "fold-branches", "merge-blocks", "if-to-select"}
	got := passNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %d passes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestPassesDeterministicSoundAndPure: every pass leaves its input
// untouched, produces the same output on repeated application, and —
// the substrate guarantee — its output is verifier-equivalent to its
// input. Probes both raw O0 states and post-mem2reg states, because
// the CFG passes (if-to-select in particular) only become applicable
// once allocas are promoted — that sequencing dependence is the point
// of the workload.
func TestPassesDeterministicSoundAndPure(t *testing.T) {
	samples := corpus(t, 20)
	opts := alive.DefaultOptions()
	reg := Registry()
	var mem2reg *Pass
	for _, p := range reg {
		if p.name == "mem2reg" {
			mem2reg = p
		}
	}
	type probe struct {
		name string
		fn   *ir.Function
	}
	var states []probe
	for _, s := range samples {
		states = append(states, probe{s.Name, s.O0})
		if g, ch := mem2reg.Apply(s.O0); ch {
			states = append(states, probe{s.Name + "+mem2reg", g})
		}
	}
	for _, p := range reg {
		p := p
		t.Run(p.name, func(t *testing.T) {
			fired := 0
			for _, st := range states {
				before := ir.FuncString(st.fn)
				g1, ch1 := p.Apply(st.fn)
				g2, ch2 := p.Apply(st.fn)
				if ir.FuncString(st.fn) != before {
					t.Fatalf("%s mutated its input on %s", p.name, st.name)
				}
				if ch1 != ch2 || ir.FuncString(g1) != ir.FuncString(g2) {
					t.Fatalf("%s not deterministic on %s", p.name, st.name)
				}
				if !ch1 {
					continue
				}
				fired++
				res := alive.VerifyFuncs(st.fn, g1, opts)
				if res.Verdict != alive.Equivalent {
					t.Fatalf("%s unsound on %s: %s\nin:\n%s\nout:\n%s",
						p.name, st.name, res.Diag, before, ir.FuncString(g1))
				}
				// Fixpoint: re-applying to the output is a no-op.
				if _, again := p.Apply(g1); again {
					t.Errorf("%s not at fixpoint after one Apply on %s", p.name, st.name)
				}
			}
			// fold-branches needs a literal constant condition, which the
			// generated corpus never produces; it is exercised separately.
			if fired == 0 && p.name != "fold-branches" {
				t.Errorf("%s never fired across %d states", p.name, len(states))
			}
		})
	}
}

// TestFoldBranchesPass exercises the one registry pass the generated
// corpus cannot reach: folding a branch on a literal constant.
func TestFoldBranchesPass(t *testing.T) {
	f, err := ir.ParseFunc(`define i32 @f(i32 noundef %0) {
entry:
  br i1 true, label %a, label %b

a:
  %2 = add i32 %0, 1
  ret i32 %2

b:
  %3 = add i32 %0, 2
  ret i32 %3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var fold *Pass
	for _, p := range Registry() {
		if p.name == "fold-branches" {
			fold = p
		}
	}
	g, changed := fold.Apply(f)
	if !changed {
		t.Fatal("fold-branches did not fire on a constant branch")
	}
	if strings.Contains(ir.FuncString(g), "br i1") {
		t.Errorf("constant branch survived:\n%s", ir.FuncString(g))
	}
	if res := alive.VerifyFuncs(f, g, alive.DefaultOptions()); res.Verdict != alive.Equivalent {
		t.Errorf("fold-branches unsound: %s", res.Diag)
	}
}

// TestBeamFindsInstcombineOrBetter: with the full reference pipeline
// in the registry, beam search's best verified latency can never
// exceed the fixed instcombine pipeline's, and on a mixed corpus it
// is strictly better in aggregate (the acceptance criterion).
func TestBeamFindsInstcombineOrBetter(t *testing.T) {
	samples := corpus(t, 24)
	cfg := SearchConfig{Oracle: testStack}
	ctx := context.Background()
	logSum, strictly := 0.0, 0
	for _, s := range samples {
		res, err := Beam(ctx, s.O0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := costmodel.Measure(instcombine.Run(s.O0))
		if res.Best.Latency > ref.Latency {
			t.Errorf("%s: beam latency %d worse than fixed instcombine %d (seq %v)",
				s.Name, res.Best.Latency, ref.Latency, res.Sequence)
		}
		if res.Best.Latency < ref.Latency {
			strictly++
		}
		logSum += math.Log(float64(res.Best.Latency) / float64(ref.Latency))
	}
	if strictly == 0 {
		t.Error("beam never strictly beat the fixed pipeline on a mixed corpus")
	}
	if geo := math.Exp(logSum / float64(len(samples))); geo >= 1 {
		t.Errorf("beam geomean latency ratio vs fixed instcombine = %.4f, want < 1", geo)
	}
}

// TestBeamWarmCacheZeroSolverRuns is the memoization pin: a second
// identical search against the same oracle stack must be answered
// entirely from the verdict cache — zero compute (solver) runs.
func TestBeamWarmCacheZeroSolverRuns(t *testing.T) {
	samples := corpus(t, 10)
	stack := oracle.NewStack(oracle.Config{})
	cfg := SearchConfig{Oracle: stack}
	ctx := context.Background()

	run := func() []*SearchResult {
		out := make([]*SearchResult, len(samples))
		for i, s := range samples {
			res, err := Beam(ctx, s.O0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}
	cold := run()
	coldStats := stack.Engine.Stats()
	if coldStats.Misses == 0 {
		t.Fatal("cold search performed no solver runs; pin is vacuous")
	}
	warm := run()
	warmStats := stack.Engine.Stats()
	if d := warmStats.Misses - coldStats.Misses; d != 0 {
		t.Errorf("warm re-search ran the solver %d times, want 0", d)
	}
	for i := range cold {
		if strings.Join(cold[i].Sequence, ",") != strings.Join(warm[i].Sequence, ",") ||
			cold[i].Best != warm[i].Best || cold[i].Queries != warm[i].Queries {
			t.Errorf("sample %d: warm search result differs from cold", i)
		}
	}
	// Shared-prefix memoization inside one search: queries are deduped
	// per unique state, never per (prefix, pass) pair.
	for i, r := range cold {
		if r.Queries != r.States {
			t.Errorf("sample %d: %d queries for %d unique states", i, r.Queries, r.States)
		}
	}
}

// TestGreedyNeverWorseAndDeterministic: greedy's result is verified,
// never slower than the input, and reproducible.
func TestGreedyNeverWorseAndDeterministic(t *testing.T) {
	samples := corpus(t, 15)
	cfg := SearchConfig{Oracle: testStack}
	ctx := context.Background()
	for _, s := range samples {
		a, err := Greedy(ctx, s.O0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Latency > a.Base.Latency {
			t.Errorf("%s: greedy made latency worse", s.Name)
		}
		b, err := Greedy(ctx, s.O0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(a.Sequence, ",") != strings.Join(b.Sequence, ",") || a.Best != b.Best {
			t.Errorf("%s: greedy not deterministic", s.Name)
		}
		if a.Best.Latency < a.Base.Latency && len(a.Sequence) == 0 {
			t.Errorf("%s: improved without applying a pass", s.Name)
		}
	}
}

// TestSearchCancellation: a canceled context surfaces as an error
// with a usable partial result.
func TestSearchCancellation(t *testing.T) {
	samples := corpus(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Beam(ctx, samples[0].O0, SearchConfig{Oracle: testStack})
	if err == nil {
		t.Error("canceled beam search returned nil error")
	}
	if res == nil || res.Fn == nil {
		t.Fatal("canceled search returned no partial result")
	}
	if res.Best.Latency > res.Base.Latency {
		t.Error("partial result worse than input")
	}
}

// TestGenerateGreedyDeterministicAndSampledReproducible covers the
// rollout layer: greedy decode is a pure function of (model, input);
// sampled decode is a pure function of (model, input, seed).
func TestGenerateGreedyDeterministicAndSampledReproducible(t *testing.T) {
	samples := corpus(t, 8)
	m := NewModel(7)
	for _, s := range samples {
		a := m.Generate(s.O0, GenOptions{})
		b := m.Generate(s.O0, GenOptions{})
		if strings.Join(a.Sequence, ",") != strings.Join(b.Sequence, ",") {
			t.Fatalf("%s: greedy decode not deterministic", s.Name)
		}
		if ir.FuncString(a.FinalFn) != ir.FuncString(b.FinalFn) {
			t.Fatalf("%s: greedy decode final fn differs", s.Name)
		}
		c := m.Generate(s.O0, GenOptions{Temperature: 1, Rng: rand.New(rand.NewSource(3))})
		d := m.Generate(s.O0, GenOptions{Temperature: 1, Rng: rand.New(rand.NewSource(3))})
		if strings.Join(c.Sequence, ",") != strings.Join(d.Sequence, ",") {
			t.Fatalf("%s: sampled decode not seed-reproducible", s.Name)
		}
		if len(a.Actions) == 0 {
			t.Fatalf("%s: episode recorded no actions", s.Name)
		}
		for _, rec := range a.Actions {
			if len(rec.Cands) == 0 || rec.Cands[len(rec.Cands)-1] != m.actStop() {
				t.Fatalf("%s: STOP missing from candidate set", s.Name)
			}
		}
	}
}

// TestModelCloneIndependent: a clone shares no parameter storage with
// the model it was taken from.
func TestModelCloneIndependent(t *testing.T) {
	m := NewModel(1)
	c := m.clone()
	m.B[0] += 5
	m.N[0][0] += 5
	if c.B[0] == m.B[0] || c.N[0][0] == m.N[0][0] {
		t.Error("clone shares storage with original")
	}
	m.clamp()
	if m.B[0] != m.MaxBias {
		t.Errorf("clamp: B[0] = %v, want %v", m.B[0], m.MaxBias)
	}
}

// clamp enforces the finite parameter budget after an update.
func (m *Model) clamp() { m.Linear.Clamp(m.MaxBias) }

// clone deep-copies the model.
func (m *Model) clone() *Model {
	c := *m
	c.Passes = slices.Clone(m.Passes)
	c.B, c.S, c.P = slices.Clone(m.B), slices.Clone(m.S), slices.Clone(m.P)
	c.N = make([][]float64, len(m.N))
	for i, row := range m.N {
		c.N[i] = slices.Clone(row)
	}
	return &c
}
