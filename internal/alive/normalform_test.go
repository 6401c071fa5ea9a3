package alive_test

// What bv's normal form does to the verifier's real traffic: the
// shapes it must fold without a solver, and a table of where the
// solver's time goes, per template and width, over the two corpora the
// benchmark runs (EXPERIMENTS.md, "Where the solver's time goes").

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/refinetest"
	"veriopt/internal/rewrite"
	"veriopt/internal/ruptest"
	"veriopt/internal/sat"
	"veriopt/internal/seqopt"
	"veriopt/internal/server"
)

var tableSeed = flag.Int64("seed", 12, "corpus seed of TestNormalFormTable (the benchmark's --seed)")

// solverCount's sink is a sink factory that counts the sat.Solvers it
// is asked for and attaches no sink: a verification that built none ran
// no Session.Check and no fresh solver.
type solverCount int

func (n *solverCount) sink() sat.ProofSink { *n++; return nil }

// tally is one row of the table.
type tally struct {
	queries, noSolver, conflicts int
	exec                         alive.ExecCounts // source and target together
	spent                        time.Duration
	slowest                      time.Duration
	hits                         map[string]int
}

type table struct {
	rows map[string]*tally
	each []time.Duration
	// rerun lists the acyclic functions whose execution visited more
	// instructions than one pass over each block per distinct call
	// count reaching it.
	rerun []string
}

// onceThroughSteps is the most instructions an execution of f visits
// when it runs each block once per distinct number of calls made on the
// way to it; ok is false when f has a cycle. It reads the function and
// nothing of the executor.
func onceThroughSteps(f *ir.Function) (steps int, ok bool) {
	const onStack = -1
	state := map[*ir.Block]int{} // onStack, or 1 when finished
	var post []*ir.Block
	var visit func(b *ir.Block) bool
	visit = func(b *ir.Block) bool {
		state[b] = onStack
		for _, s := range b.Succs() {
			if state[s] == onStack || (state[s] == 0 && !visit(s)) {
				return false
			}
		}
		state[b] = 1
		post = append(post, b)
		return true
	}
	if !visit(f.Entry()) {
		return 0, false
	}
	occurs := map[*ir.Block]uint64{f.Entry(): 1} // bit k: reached having made k calls
	for i := len(post) - 1; i >= 0; i-- {
		b, calls, nonPhi := post[i], uint(0), 0
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
			if in.Op != ir.OpPhi {
				nonPhi++
			}
		}
		steps += bits.OnesCount64(occurs[b]) * nonPhi
		for _, s := range b.Succs() {
			occurs[s] |= occurs[b] << calls
		}
	}
	return steps, true
}

// measure verifies one pair as the oracle stack's base does and books
// it under row.
func (tb *table) measure(row string, src, tgt *ir.Function) alive.Result {
	var built solverCount
	t0 := time.Now()
	res, hits, counts := alive.VerifyRuleHits(src, tgt, alive.DefaultOptions(), built.sink)
	dt := time.Since(t0)
	r := tb.rows[row]
	if r == nil {
		r = &tally{hits: map[string]int{}}
		tb.rows[row] = r
	}
	r.queries++
	for i, f := range []*ir.Function{src, tgt} {
		r.exec.Add(counts[i])
		if bound, acyclic := onceThroughSteps(f); acyclic && counts[i].Steps > bound {
			tb.rerun = append(tb.rerun, fmt.Sprintf("%s (%s): %d steps, %d once through", f.NameStr, row, counts[i].Steps, bound))
		}
	}
	if built == 0 {
		r.noSolver++
	}
	r.conflicts += res.SolverConflicts
	r.spent += dt
	r.slowest = max(r.slowest, dt)
	for rule, n := range hits {
		if rule != "walk" { // work done, not a rule
			r.hits[rule] += n
		}
	}
	tb.each = append(tb.each, dt)
	return res
}

func (tb *table) print(t *testing.T, title string) {
	var total tally
	names := make([]string, 0, len(tb.rows))
	for name, r := range tb.rows {
		names = append(names, name)
		total.queries += r.queries
		total.noSolver += r.noSolver
		total.conflicts += r.conflicts
		total.spent += r.spent
		total.exec.Add(r.exec)
	}
	sort.Slice(names, func(i, j int) bool { return tb.rows[names[i]].spent > tb.rows[names[j]].spent })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d verifications, %d without a solver, %d conflicts, %.1f ms\n", title,
		total.queries, total.noSolver, total.conflicts, ms(total.spent))
	fmt.Fprintf(&sb, "executed: %d paths, %d steps, %d merges; %d acyclic functions stepped past one pass per block and call count\n",
		total.exec.Paths, total.exec.Steps, total.exec.Merges, len(tb.rerun))
	sort.Slice(tb.each, func(i, j int) bool { return tb.each[i] > tb.each[j] })
	for _, top := range []int{10, 100, 200, 1000} {
		var sum time.Duration
		for _, d := range tb.each[:min(top, len(tb.each))] {
			sum += d
		}
		fmt.Fprintf(&sb, "slowest %d: %.1f ms (%.0f%%)\n", top, ms(sum), 100*float64(sum)/float64(total.spent))
	}
	fmt.Fprintf(&sb, "| template/width | verifications | no solver | conflicts | paths | steps | merges | ms | slowest ms | rule hits |\n|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, name := range names {
		r := tb.rows[name]
		rules := make([]string, 0, len(r.hits))
		for rule, n := range r.hits {
			rules = append(rules, fmt.Sprintf("%s %d", rule, n))
		}
		sort.Strings(rules)
		fmt.Fprintf(&sb, "| %s | %d | %d | %d | %d | %d | %d | %.2f | %.2f | %s |\n", name, r.queries, r.noSolver, r.conflicts,
			r.exec.Paths, r.exec.Steps, r.exec.Merges, ms(r.spent), ms(r.slowest), strings.Join(rules, ", "))
	}
	t.Log("\n" + sb.String())
	// A join that runs once per path into it is what merging removed.
	for _, r := range tb.rerun {
		t.Errorf("a block ran more than once per call count: %s", r)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// widthOfFn names the integer width a template instance works at: its
// first parameter's, or the return type's.
func widthOfFn(f *ir.Function) string {
	if len(f.Params) > 0 {
		return f.Params[0].Ty.String()
	}
	return f.RetTy.String()
}

// forEachBenchSample is bench/corpus.go's forEachSample: the n-sample
// corpus of seed, generated in chunks of 1024 with the chunk number
// appended to every function name.
func forEachBenchSample(t testing.TB, seed int64, n int, fn func(i int, s *dataset.Sample)) {
	const chunk = 1024
	for c := 0; c*chunk < n; c++ {
		samples, err := dataset.Generate(dataset.Config{Seed: seed*1_000_003 + int64(c), N: min(chunk, n-c*chunk), SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range samples {
			old := "@" + s.O0.NameStr + "("
			s.O0.NameStr = fmt.Sprintf("%s_c%d", s.O0.NameStr, c)
			s.Ref.NameStr = s.O0.NameStr
			renamed := "@" + s.O0.NameStr + "("
			s.O0Text = strings.Replace(s.O0Text, old, renamed, 1)
			s.RefText = strings.Replace(s.RefText, old, renamed, 1)
			fn(c*chunk+j, s)
		}
	}
}

// verdictOf is the verdict each of refinetest's labels must get.
var verdictOf = map[refinetest.Label]alive.Verdict{refinetest.Refines: alive.Equivalent,
	refinetest.Distinguished: alive.SemanticError, refinetest.Unparsable: alive.SyntaxError}

// TestLabellerIsTheBenchmarks holds bench/corpus.go's labeller, which
// bench/ keeps as its own copy, to refinetest.Target: the op list
// cluster-cold runs at the benchmark's defaults (seed 12, 1250 ops a
// second for 15 s, trimmed to a whole number of nine segments: 18 747
// ops), labelled by refinetest and fingerprinted the way the benchmark's
// digestRequests does with no play order, must match the cluster-cold
// digest in bench/golden.json.
func TestLabellerIsTheBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("18 747 labelled ops; tier 1 runs it without -short")
	}
	raw, err := os.ReadFile("../../bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Seed    int64
		Digests map[string]string
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	unsound, corrupt := rewrite.Unsound(), rewrite.Corruptions()
	h := sha256.New()
	forEachBenchSample(t, golden.Seed, 18747, func(i int, s *dataset.Sample) {
		tgt, l := refinetest.Target(golden.Seed, i, s.O0, s.Ref, s.RefText, unsound, corrupt)
		body, err := json.Marshal(server.VerifyRequest{Src: s.O0Text, Tgt: tgt})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:%s%s\n", len(body), body, verdictOf[l]) // a nil play order adds no bytes
	})
	if got, want := hex.EncodeToString(h.Sum(nil)), golden.Digests["cluster-cold"]; got != want {
		t.Errorf("cluster-cold labelled by refinetest: digest %s, bench/golden.json has %s", got, want)
	}
}

// TestNormalFormTable prints, for serve-warm's fill corpus and for the
// queries search-cold's beam sends its base verifier, one row per
// template and width: verifications, how many built no solver, conflicts,
// time, and which normal-form rules fired. It fails when a verdict
// disagrees with its label, or when a rule of the normal form fires
// nowhere on either corpus — such a rule is deleted, not kept. Plain
// `go test` runs an eighth of the fill corpus; -v runs all of it
// (8192 keys, 512 searches).
func TestNormalFormTable(t *testing.T) {
	fillN, searchN := 1024, 64
	if testing.Verbose() {
		fillN, searchN = 8192, 512
	}
	fired := map[string]int{}

	fill := &table{rows: map[string]*tally{}}
	unsound, corrupt := rewrite.Unsound(), rewrite.Corruptions()
	forEachBenchSample(t, *tableSeed, fillN, func(i int, s *dataset.Sample) {
		tgtText, l := refinetest.Target(*tableSeed, i, s.O0, s.Ref, s.RefText, unsound, corrupt)
		if l == refinetest.Unparsable {
			return
		}
		label := verdictOf[l]
		src, err := ir.ParseFunc(s.O0Text)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := ir.ParseFunc(tgtText)
		if err != nil {
			t.Fatal(err)
		}
		row := fmt.Sprintf("%s/%s %s", s.Template, widthOfFn(src), label)
		if res := fill.measure(row, src, tgt); res.Verdict != label {
			t.Errorf("%s: %v, labelled %v\n%s\n%s", s.O0.NameStr, res.Verdict, label, s.O0Text, tgtText)
		}
	})
	fill.print(t, fmt.Sprintf("serve-warm fill, seed %d, %d keys", *tableSeed, fillN))

	search := &table{rows: map[string]*tally{}}
	row := ""
	stack := oracle.NewStack(oracle.Config{Base: oracle.Func(func(_ context.Context, src, tgt *ir.Function, _ alive.Options) alive.Result {
		return search.measure(row, src, tgt)
	})})
	forEachBenchSample(t, *tableSeed, searchN, func(_ int, s *dataset.Sample) {
		row = fmt.Sprintf("%s/%s", s.Template, widthOfFn(s.O0))
		if _, err := seqopt.Beam(context.Background(), s.O0, seqopt.SearchConfig{Oracle: stack}); err != nil {
			t.Fatal(err)
		}
	})
	search.print(t, fmt.Sprintf("search-cold beam, seed %d, %d searches", *tableSeed, searchN))

	for _, tb := range []*table{fill, search} {
		for _, r := range tb.rows {
			for rule, n := range r.hits {
				fired[rule] += n
			}
		}
	}
	// "merge" is not in the list: like terms meet nowhere in this
	// traffic, but a sum whose atoms may repeat has no one spelling, and
	// the branch is the Builder's x - x = 0 of old.
	for _, rule := range []string{"sub", "neg-neg", "scale", "eq-const", "xor-cancel", "absorb", "complement",
		"mul-pow2", "udiv-pow2", "urem-pow2", "sdiv-pow2"} {
		if fired[rule] == 0 {
			t.Errorf("rule %s fired on neither corpus: delete it", rule)
		}
	}
}

// BenchmarkProofReplay is what replaying every proof costs on the
// verifier's real traffic: serve-warm's fill corpus (seed 12, 8192 keys,
// the pairs TestNormalFormTable -v measures) and, under search-cold/,
// the pairs search-cold's beam sends its base verifier (searchColdPairs),
// verified plain, then with a ruptest.Checker as the proof sink of every
// solver a verification builds. Per pass over a corpus it reports the
// verdicts settled with no solver built and with one, the µs per
// solver-built verdict, and the lemmas and Unsat answers replayed;
// replay's µs less plain's is the checker's share. The search-cold
// runs also report how many of the beam's queries its stack's cache
// answered, which reach no verifier.
func BenchmarkProofReplay(b *testing.B) {
	const seed = 12
	var fill [][2]*ir.Function
	unsound, corrupt := rewrite.Unsound(), rewrite.Corruptions()
	forEachBenchSample(b, seed, 8192, func(i int, s *dataset.Sample) {
		tgtText, l := refinetest.Target(seed, i, s.O0, s.Ref, s.RefText, unsound, corrupt)
		if l == refinetest.Unparsable {
			return
		}
		src, err := ir.ParseFunc(s.O0Text)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := ir.ParseFunc(tgtText)
		if err != nil {
			b.Fatal(err)
		}
		fill = append(fill, [2]*ir.Function{src, tgt})
	})
	searched, cached := searchColdPairs(b)
	for _, corpus := range []struct {
		prefix string
		pairs  [][2]*ir.Function
	}{{"", fill}, {"search-cold/", searched}} {
		for _, mode := range []string{"plain", "replay"} {
			b.Run(corpus.prefix+mode, func(b *testing.B) {
				replayPairs(b, corpus.pairs, mode == "replay")
				if corpus.prefix != "" {
					b.ReportMetric(float64(cached), "cache-verdicts/op")
				}
			})
		}
	}
}

// replayPairs verifies pairs b.N times, with every solver's proof
// replayed when replay is set, and reports BenchmarkProofReplay's
// metrics.
func replayPairs(b *testing.B, pairs [][2]*ir.Function, replay bool) {
	var a ruptest.Audit
	noSolver, solver, lemmas, unsats := 0, 0, 0, 0
	var spent time.Duration
	for range b.N {
		for _, p := range pairs {
			var built solverCount
			proof := built.sink
			if replay {
				proof = func() sat.ProofSink { built++; return a.New() }
			}
			t0 := time.Now()
			alive.VerifyRuleHits(p[0], p[1], alive.DefaultOptions(), proof)
			dt := time.Since(t0)
			_, l, u := a.Verify(b)
			lemmas, unsats = lemmas+l, unsats+u
			if built == 0 {
				noSolver++
				continue
			}
			solver++
			spent += dt
		}
	}
	b.ReportMetric(float64(noSolver)/float64(b.N), "no-solver-verdicts/op")
	b.ReportMetric(float64(solver)/float64(b.N), "solver-verdicts/op")
	b.ReportMetric(float64(spent.Microseconds())/float64(solver), "µs/solver-verdict")
	b.ReportMetric(float64(lemmas)/float64(b.N), "lemmas-replayed/op")
	b.ReportMetric(float64(unsats)/float64(b.N), "unsats-replayed/op")
}

// searchColdPairs runs seqopt.Beam over search-cold's inputs at the
// benchmark's defaults (seed 12, 190 searches a second for 15 s: 2 844
// inputs, whose digest must be bench/golden.json's) on one stack, as
// search-cold does, and returns copies of the pairs its base verifier
// was asked, in order, and how many queries the stack's cache answered.
func searchColdPairs(b *testing.B) (pairs [][2]*ir.Function, cached int) {
	raw, err := os.ReadFile("../../bench/golden.json")
	if err != nil {
		b.Fatal(err)
	}
	var golden struct {
		Seed    int64
		Digests map[string]string
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		b.Fatal(err)
	}
	asked := 0
	stack := oracle.NewStack(oracle.Config{Base: oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		pairs = append(pairs, [2]*ir.Function{ir.CloneFunc(src), ir.CloneFunc(tgt)})
		return alive.VerifyFuncsCtx(ctx, src, tgt, opts)
	})})
	counted := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		asked++
		return stack.Verify(ctx, src, tgt, opts)
	})
	h := sha256.New()
	forEachBenchSample(b, golden.Seed, 2844, func(_ int, s *dataset.Sample) {
		text := ir.FuncString(s.O0)
		fmt.Fprintf(h, "%d:%s\n", len(text), text)
		if _, err := seqopt.Beam(context.Background(), s.O0, seqopt.SearchConfig{Oracle: counted}); err != nil {
			b.Fatal(err)
		}
	})
	if got, want := hex.EncodeToString(h.Sum(nil)), golden.Digests["search-cold"]; got != want {
		b.Fatalf("search-cold's inputs: digest %s, bench/golden.json has %s", got, want)
	}
	return pairs, asked - len(pairs)
}

// tailShapes returns the corpus templates whose verification the normal
// form exists for — negation (both arms), xor-cancel (all three),
// strength-div (udiv, urem, sdiv) and strength-mul (both) — written out
// at one width, two parameters each.
func tailShapes(bits int) map[string]string {
	ty := fmt.Sprintf("i%d", bits)
	fn := func(body string) string {
		return fmt.Sprintf("define %s @f(%s noundef %%0, %s noundef %%1) {\n%s}\n", ty, ty, ty, strings.ReplaceAll(body, "T", ty))
	}
	k := bits / 2
	return map[string]string{
		"negation/double":    fn("  %3 = sub T 0, %0\n  %4 = sub T 0, %3\n  ret T %4\n"),
		"negation/add-neg":   fn("  %3 = sub T 0, %1\n  %4 = add T %0, %3\n  ret T %4\n"),
		"xor-cancel/xor":     fn("  %3 = xor T %0, %1\n  %4 = xor T %3, %1\n  ret T %4\n"),
		"xor-cancel/and-or":  fn("  %3 = or T %0, %1\n  %4 = and T %3, %0\n  ret T %4\n"),
		"xor-cancel/or-and":  fn("  %3 = and T %0, %1\n  %4 = or T %3, %0\n  ret T %4\n"),
		"strength-div/udiv":  fn(fmt.Sprintf("  %%3 = udiv T %%0, %d\n  ret T %%3\n", uint64(1)<<k)),
		"strength-div/urem":  fn(fmt.Sprintf("  %%3 = urem T %%0, %d\n  ret T %%3\n", uint64(1)<<k)),
		"strength-div/sdiv":  fn(fmt.Sprintf("  %%3 = sdiv T %%0, %d\n  ret T %%3\n", uint64(1)<<k)),
		"strength-div/sdiv2": fn("  %3 = sdiv T %0, 2\n  ret T %3\n"),
		"strength-mul/add":   fn(fmt.Sprintf("  %%3 = mul T %%0, %d\n  %%4 = add T %%3, %%1\n  ret T %%4\n", uint64(1)<<k)),
		"strength-mul/sub":   fn(fmt.Sprintf("  %%3 = mul T %%0, %d\n  %%4 = sub T %%3, %%1\n  ret T %%4\n", uint64(1)<<k)),
	}
}

// TestNormalFormFoldsWithoutSolver: each tail shape, at each width,
// against its instcombine output is Equivalent before a solver exists —
// the refinement queries are constant false once both sides are interned.
// Every unsound rewrite of that output is still refuted, session and
// fresh, with a counterexample the interpreter confirms; one the
// verifier accepts must survive the interpreter on a few hundred inputs.
func TestNormalFormFoldsWithoutSolver(t *testing.T) {
	t.Parallel()
	refuted := 0
	for _, bits := range []int{8, 16, 32, 64} {
		for name, text := range tailShapes(bits) {
			name = fmt.Sprintf("%s/i%d", name, bits)
			src, err := ir.ParseFunc(text)
			if err != nil || ir.VerifyFunc(src) != nil {
				t.Fatalf("%s: %v, %v\n%s", name, err, ir.VerifyFunc(src), text)
			}
			ref := instcombine.Run(src)
			if ir.FuncString(ref) == ir.FuncString(src) {
				t.Fatalf("%s: instcombine left it alone", name)
			}
			var built solverCount
			res, _, _ := alive.VerifyRuleHits(src, ref, alive.DefaultOptions(), built.sink)
			if res.Verdict != alive.Equivalent || res.SolverConflicts != 0 || built != 0 {
				t.Errorf("%s: %v, %d conflicts, %d solvers built\n%s%s", name, res.Verdict, res.SolverConflicts,
					built, text, ir.FuncString(ref))
			}
			for i, rule := range rewrite.Unsound() {
				bad := ir.CloneFunc(ref)
				if !rule.Applicable(ref) || !rule.Apply(bad, rand.New(rand.NewSource(int64(i)))) || ir.VerifyFunc(bad) != nil {
					continue
				}
				for _, fresh := range []bool{false, true} {
					res := alive.VerifyFuncs(src, bad, alive.DefaultOptions())
					if fresh {
						res = alive.VerifyFresh(context.Background(), src, bad, alive.DefaultOptions(), false, nil)
					}
					switch res.Verdict {
					case alive.SemanticError:
						refuted++
						if !refinetest.Witness(t, src, bad, res.Counterexample) {
							t.Errorf("%s, %s, fresh=%v: counterexample %v does not distinguish\n%s%s", name, rule.Name,
								fresh, res.Counterexample, text, ir.FuncString(bad))
						}
					case alive.Equivalent:
						if in, err := refinetest.Falsify(src, bad, int64(bits), 300); in != nil || err != nil {
							t.Fatalf("%s, %s: accepted, yet %v distinguishes (%v)\n%s%s", name, rule.Name, in, err, text, ir.FuncString(bad))
						}
					default:
						t.Errorf("%s, %s: %v (%s)", name, rule.Name, res.Verdict, res.Diag)
					}
				}
			}
		}
	}
	if refuted < 40 {
		t.Errorf("only %d unsound rewrites refuted: the mutants no longer reach these shapes", refuted)
	}
}

// TestDivisionSideConditionsKept: the divisions the normal form must
// leave alone — by 1, by -1, by the sign bit, by 0 — keep their
// undefined behaviour: a target may drop it, never introduce it.
func TestDivisionSideConditionsKept(t *testing.T) {
	fn := func(body string) *ir.Function {
		f, err := ir.ParseFunc("define i8 @f(i8 noundef %0) {\n" + body + "}\n")
		if err != nil || ir.VerifyFunc(f) != nil {
			t.Fatalf("%v, %v\n%s", err, ir.VerifyFunc(f), body)
		}
		return f
	}
	neg := fn("  %2 = sub i8 0, %0\n  ret i8 %2\n")
	id := fn("  ret i8 %0\n")
	isMin := fn("  %2 = icmp eq i8 %0, -128\n  %3 = zext i1 %2 to i8\n  ret i8 %3\n")
	for _, tc := range []struct {
		name     string
		div, alt *ir.Function
		back     alive.Verdict // alt as source, div as target
	}{
		{"sdiv -1", fn("  %2 = sdiv i8 %0, -1\n  ret i8 %2\n"), neg, alive.SemanticError}, // -128 / -1 overflows
		{"sdiv 1", fn("  %2 = sdiv i8 %0, 1\n  ret i8 %2\n"), id, alive.Equivalent},
		{"sdiv sign bit", fn("  %2 = sdiv i8 %0, -128\n  ret i8 %2\n"), isMin, alive.Equivalent},
		{"udiv 0", fn("  %2 = udiv i8 %0, 0\n  ret i8 %2\n"), id, alive.SemanticError},
		{"urem 0", fn("  %2 = urem i8 %0, 0\n  ret i8 %2\n"), id, alive.SemanticError},
	} {
		if res := alive.VerifyFuncs(tc.div, tc.alt, alive.DefaultOptions()); res.Verdict != alive.Equivalent {
			t.Errorf("%s refined by its defined form: %v (%s)", tc.name, res.Verdict, res.Diag)
		}
		res := alive.VerifyFuncs(tc.alt, tc.div, alive.DefaultOptions())
		if res.Verdict != tc.back {
			t.Errorf("%s as the target: %v, want %v (%s)", tc.name, res.Verdict, tc.back, res.Diag)
		}
		if res.Verdict == alive.SemanticError && !refinetest.Witness(t, tc.alt, tc.div, res.Counterexample) {
			t.Errorf("%s as the target: counterexample %v does not distinguish", tc.name, res.Counterexample)
		}
	}
	// The biased shift is wrong for the sign bit (-128 sdiv -128 is 1,
	// the shift says -1). instcombine applied it there until PR 25 and
	// alive refuted the result; it now leaves the division alone.
	sdivMin := fn("  %2 = sdiv i8 %0, -128\n  ret i8 %2\n")
	if res := alive.VerifyFuncs(sdivMin, instcombine.Run(sdivMin), alive.DefaultOptions()); res.Verdict != alive.Equivalent {
		t.Errorf("sdiv by the sign bit against instcombine's output: %v, want equivalent (%s)", res.Verdict, res.Diag)
	}
}

// chainFn is a straight-line function of about n instructions that sums
// n/2 distinct atoms (xors of the parameter with distinct constants),
// left-leaning — ((a1 + a2) + a3) + … — or right-leaning; bump changes
// the last constant, for a target that differs.
func chainFn(t *testing.T, n int, right bool, bump int) *ir.Function {
	var sb strings.Builder
	sb.WriteString("define i32 @f(i32 noundef %0) {\n")
	next := 2
	atoms := make([]int, n/2)
	for i := range atoms {
		c := i + 1
		if i == len(atoms)-1 {
			c += bump
		}
		fmt.Fprintf(&sb, "  %%%d = xor i32 %%0, %d\n", next, c)
		atoms[i] = next
		next++
	}
	acc := atoms[0]
	for _, a := range atoms[1:] {
		if right {
			fmt.Fprintf(&sb, "  %%%d = add i32 %%%d, %%%d\n", next, a, acc)
		} else {
			fmt.Fprintf(&sb, "  %%%d = add i32 %%%d, %%%d\n", next, acc, a)
		}
		acc = next
		next++
	}
	fmt.Fprintf(&sb, "  ret i32 %%%d\n}\n", acc)
	f, err := ir.ParseFunc(sb.String())
	if err != nil || ir.VerifyFunc(f) != nil {
		t.Fatalf("chain of %d: %v, %v", n, err, ir.VerifyFunc(f))
	}
	return f
}

// TestNormalFormLinearOnLongChains: /v1/verify takes any IR that parses,
// so reading an expression as a sum must stay O(1) per constructor call
// on a chain far longer than its window, whichever way the chain leans:
// twice the instructions may visit at most twice the nodes (the count is
// exact; with the window at 4096 it reads 4x). The times are logged, not
// asserted — this host moves them by a third between runs.
func TestNormalFormLinearOnLongChains(t *testing.T) {
	run := func(n int, right bool) (walked int, took time.Duration) {
		src, same, other := chainFn(t, n, right, 0), chainFn(t, n, right, 0), chainFn(t, n, right, 1)
		t0 := time.Now()
		res, hits, _ := alive.VerifyRuleHits(src, same, alive.DefaultOptions(), nil)
		if res.Verdict != alive.Equivalent {
			t.Fatalf("chain of %d against itself: %v (%s)", n, res.Verdict, res.Diag)
		}
		if res := alive.VerifyFuncs(src, other, alive.DefaultOptions()); res.Verdict != alive.SemanticError {
			t.Fatalf("chain of %d against one with a changed constant: %v (%s)", n, res.Verdict, res.Diag)
		}
		return hits["walk"], time.Since(t0)
	}
	for _, right := range []bool{false, true} {
		half, halfTook := run(2000, right)
		full, fullTook := run(4000, right)
		t.Logf("right-leaning %v: 2000 instructions visit %d nodes in %v, 4000 visit %d in %v", right, half, halfTook, full, fullTook)
		if half == 0 || full > 2*half+half/10 {
			t.Errorf("right-leaning %v: 4000 instructions visit %d nodes, 2000 visit %d: more than linear", right, full, half)
		}
	}
}
