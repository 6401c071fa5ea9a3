package seqopt

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
)

// familySlice is a corpus slice with every template, so all five
// scenario families, in it.
func familySlice(t *testing.T, perTemplate int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 7, N: perTemplate * datasetTemplates, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, s := range samples {
		families[s.Scenario] = true
	}
	if n := len(families); n != 5 {
		t.Fatalf("slice covers %d scenario families, want 5", n)
	}
	return samples
}

// datasetTemplates is the size of dataset's template registry
// (pinned by dataset's TestOneRoundCoversEveryTemplate): a corpus of
// k*datasetTemplates samples holds every template k times.
const datasetTemplates = 36

func layout(f *ir.Function) []*ir.Instr {
	var out []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) { out = append(out, in) })
	return out
}

// TestInPlaceFalseLeavesFunctionUntouched holds every pass the registry
// holds — none is skipped, so a new pass is under it the day it is
// appended — to the in-place contract of the steps and rules it is made
// of: a run that reports false has changed nothing, not the text and
// not which instruction object sits where. Each pass is probed on the O0
// function and on every state a walk through the registry passes on
// the way down from it.
func TestInPlaceFalseLeavesFunctionUntouched(t *testing.T) {
	samples := familySlice(t, 2)
	reg := Registry()
	for _, p := range reg {
		probes := 0
		for _, s := range samples {
			states := []*ir.Function{s.O0}
			for _, q := range reg {
				if g, changed := q.Apply(states[len(states)-1]); changed {
					states = append(states, g)
				}
			}
			for i, st := range states {
				g := ir.CloneFunc(st)
				text, instrs := ir.FuncString(g), layout(g)
				if p.run(g) {
					continue
				}
				probes++
				if got := ir.FuncString(g); got != text {
					t.Fatalf("%s on %s state %d reported false but changed the function:\n%s\nwas:\n%s", p.name, s.Name, i, got, text)
				}
				if !slices.Equal(layout(g), instrs) {
					t.Fatalf("%s on %s state %d reported false but moved or replaced an instruction", p.name, s.Name, i)
				}
			}
		}
		if probes < 100 {
			t.Errorf("%s: only %d non-firing probes; the corpus no longer exercises the contract", p.name, probes)
		}
	}
}

// TestPassesOnParsedEqualPassesOnClone: a parsed function keeps its
// instructions, operands and successors in shared slabs (ir/parse.go),
// and so does a clone of it, in slabs of other sizes cut in another
// order (ir/clone.go: one exact-size slab per element type, the block
// list and the successors sharing one); every pass must do to the first
// what it does to the second — alone on a fresh parse, and in rounds
// through the whole registry until nothing fires, where a pass meets
// windows earlier passes have already cut into and appended to.
func TestPassesOnParsedEqualPassesOnClone(t *testing.T) {
	parsed := func(text string) *ir.Function {
		f, err := ir.ParseFunc(text)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// The corpus never branches on a constant; fold-branches needs one.
	texts := []string{`define i32 @constbr(i32 noundef %x) {
entry:
  br i1 true, label %a, label %b

a:
  %y = add i32 %x, 0
  br label %j

b:
  br label %j

j:
  %p = phi i32 [ %y, %a ], [ 7, %b ]
  ret i32 %p
}
`}
	for _, s := range familySlice(t, 2) {
		texts = append(texts, s.O0Text)
	}
	reg := Registry()
	fired := make(map[string]int)
	for _, text := range texts {
		same := func(p *Pass, a, b *ir.Function) bool {
			ca, cb := p.run(a), p.run(b)
			if ta, tb := ir.FuncString(a), ir.FuncString(b); ca != cb || ta != tb {
				t.Fatalf("%s: parsed (changed %v):\n%s\nclone (changed %v):\n%s\nfrom:\n%s", p.name, ca, ta, cb, tb, text)
			}
			if ca {
				fired[p.name]++
			}
			return ca
		}
		for _, p := range reg {
			same(p, parsed(text), ir.CloneFunc(parsed(text)))
		}
		a, b := parsed(text), ir.CloneFunc(parsed(text))
		for round, changed := 0, true; changed; round++ {
			if round == maxFixpointIters {
				t.Fatalf("the registry does not reach a fixpoint on:\n%s", text)
			}
			changed = false
			for _, p := range reg {
				changed = same(p, a, b) || changed
			}
		}
		if err := ir.VerifyFunc(a); err != nil {
			t.Fatalf("at the registry's fixpoint: %v\n%s", err, ir.FuncString(a))
		}
	}
	for _, p := range reg {
		if fired[p.name] == 0 {
			t.Errorf("%s never fired; the corpus no longer exercises it", p.name)
		}
	}
}

// refExpand is expand without finders: every pass runs on its own
// clone of the state.
func refExpand(ctx context.Context, f0 *ir.Function, st *state, cfg SearchConfig, seen map[string]bool, res *SearchResult) []*state {
	var out []*state
	for _, p := range Registry() {
		g := ir.CloneFunc(st.fn)
		if !p.run(g) {
			continue
		}
		key := ir.CanonicalKey(g)
		if seen[key] {
			continue
		}
		seen[key] = true
		res.States++
		vr := cfg.Oracle.Verify(ctx, f0, g, alive.DefaultOptions())
		res.Queries++
		if vr.Verdict != alive.Equivalent {
			continue
		}
		out = append(out, &state{fn: g, key: key, parent: st, pass: p.name, m: costmodel.Measure(g)})
	}
	return out
}

// refSearch is Beam (beam true) or Greedy over refExpand.
func refSearch(f0 *ir.Function, cfg SearchConfig, beam bool) *SearchResult {
	ctx := context.Background()
	root := &state{fn: f0, key: ir.CanonicalKey(f0), m: costmodel.Measure(f0)}
	res := &SearchResult{Fn: f0, Base: root.m, Best: root.m}
	best, frontier := root, []*state{root}
	seen := map[string]bool{root.key: true}
	for d := 0; d < searchDepth && len(frontier) > 0; d++ {
		var cands []*state
		for _, st := range frontier {
			cands = append(cands, refExpand(ctx, f0, st, cfg, seen, res)...)
		}
		sort.SliceStable(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
		if !beam {
			if len(cands) == 0 || cands[0].m.Latency >= best.m.Latency {
				break
			}
			cands = cands[:1]
		} else if len(cands) > beamWidth {
			cands = cands[:beamWidth]
		}
		if len(cands) > 0 && better(cands[0], best) {
			best = cands[0]
		}
		frontier = cands
	}
	return (&search{res: res}).finish(best)
}

// outcome is everything a search reports, the winner as canonical text.
type outcome struct {
	Sequence        []string
	Fn              string
	Base, Best      costmodel.Metrics
	States, Queries int
}

func outcomeOf(r *SearchResult) outcome {
	return outcome{r.Sequence, ir.CanonicalText(r.Fn), r.Base, r.Best, r.States, r.Queries}
}

// TestSearchMatchesPerPassApply: asking each pass's finder first, and
// copying a state only for a pass that fires, changes nothing a search
// reports.
func TestSearchMatchesPerPassApply(t *testing.T) {
	samples := familySlice(t, 1)
	ctx := context.Background()
	improved := 0
	for _, s := range samples {
		for _, beam := range []bool{true, false} {
			search, name := Greedy, "Greedy"
			if beam {
				search, name = Beam, "Beam"
			}
			got, err := search(ctx, s.O0, SearchConfig{Oracle: oracle.NewStack(oracle.Config{})})
			if err != nil {
				t.Fatal(err)
			}
			want := refSearch(s.O0, SearchConfig{Oracle: oracle.NewStack(oracle.Config{})}, beam)
			if !reflect.DeepEqual(outcomeOf(got), outcomeOf(want)) {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", name, s.Name, outcomeOf(got), outcomeOf(want))
			}
			if got.Best.Latency < got.Base.Latency {
				improved++
			}
		}
	}
	if improved < len(samples) {
		t.Errorf("only %d of %d searches improved their input; the comparison is close to vacuous", improved, 2*len(samples))
	}
}

// TestBeamConcurrentSharedConfig: four goroutines searching through
// one SearchConfig — one oracle stack, and the one pass registry every
// search shares — report what a sequential run reports, and no winner
// changes afterwards: a result must not be a working copy some later
// pass went on to rewrite. Run under -race in tier 2.
func TestBeamConcurrentSharedConfig(t *testing.T) {
	samples := familySlice(t, 1)
	ctx := context.Background()
	cfg := SearchConfig{Oracle: oracle.NewStack(oracle.Config{})}
	want := make([]outcome, len(samples))
	for i, s := range samples {
		res, err := Beam(ctx, s.O0, SearchConfig{Oracle: oracle.NewStack(oracle.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outcomeOf(res)
	}
	const workers = 4
	results := make([][]*SearchResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		results[w] = make([]*SearchResult, len(samples))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range samples {
				// Each worker starts elsewhere, so the workers are in
				// different searches at any one time.
				j := (i + w*len(samples)/workers) % len(samples)
				res, err := Beam(ctx, samples[j].O0, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				results[w][j] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range results {
		for i, res := range results[w] {
			if res == nil {
				t.Fatalf("worker %d: no result for %s", w, samples[i].Name)
			}
			if got := outcomeOf(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("worker %d on %s:\n got %+v\nwant %+v", w, samples[i].Name, got, want[i])
			}
		}
	}
}

// TestRegistryBuildsOnce: every call returns the same passes in a
// slice of the caller's own, so reordering one caller's action space
// cannot reorder another's.
func TestRegistryBuildsOnce(t *testing.T) {
	a, b := Registry(), Registry()
	a[0], a[1] = a[1], a[0]
	if b[0].name != "combine" || b[1] != a[0] || b[0] != a[1] {
		t.Errorf("Registry calls share their slice or rebuild their passes: %s, %s", b[0].name, b[1].name)
	}
	if n := testing.AllocsPerRun(20, func() { Registry() }); n > 1 {
		t.Errorf("Registry: %v allocations per call, want the slice only", n)
	}
}

// TestOracleTargetsStayUntouched: no function a search hands the oracle
// is written again, by that search or a later one. An oracle.Func in
// front of one shared stack records each target with its text when
// asked; after Beam and Greedy over distinct O0 inputs (search-cold's
// shape: seed 12, one stack for every search), every recorded function
// must still print that text. The registry's passes are sound, so the
// stack refutes none of them; a second round refutes every third query
// itself, so a search that dropped a refuted state's memory shows too.
func TestOracleTargetsStayUntouched(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 2 * datasetTemplates, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	type asked struct {
		fn   *ir.Function
		text string
	}
	stack := oracle.NewStack(oracle.Config{})
	ctx := context.Background()
	for _, refuteEvery := range []int{0, 3} {
		var seen []asked
		cfg := SearchConfig{Oracle: oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
			seen = append(seen, asked{tgt, ir.FuncString(tgt)})
			if refuteEvery > 0 && len(seen)%refuteEvery == 0 {
				return alive.Result{Verdict: alive.SemanticError}
			}
			return stack.Verify(ctx, src, tgt, opts)
		})}
		for _, search := range []func(context.Context, *ir.Function, SearchConfig) (*SearchResult, error){Beam, Greedy} {
			for _, s := range samples {
				if _, err := search(ctx, s.O0, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(seen) < 4*len(samples) {
			t.Fatalf("refuting every %d: the oracle was asked %d times over %d inputs; the check is close to vacuous", refuteEvery, len(seen), len(samples))
		}
		for i, a := range seen {
			if got := ir.FuncString(a.fn); got != a.text {
				t.Fatalf("refuting every %d, query %d of %d: the target was written after the oracle saw it:\n%s\nwas:\n%s", refuteEvery, i, len(seen), got, a.text)
			}
		}
	}
}
