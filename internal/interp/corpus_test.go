package interp

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

// corpusFuncs returns, for perTemplate samples of every dataset template
// at each seed, the O0 function, the reference and — the corpus itself
// holds no phi — the O0 function after mem2reg, plus what every
// applicable rewrite.Unsound() rule makes of each of the three when the
// result still passes ir.VerifyFunc: the functions bench/corpus.go
// interprets to label its ops.
func corpusFuncs(tb testing.TB, perTemplate int, seeds ...int64) []*ir.Function {
	tb.Helper()
	var mem2reg *rewrite.Rule
	for _, r := range rewrite.Extra() {
		if r.Name == "extra-mem2reg" {
			mem2reg = r
		}
	}
	var fns []*ir.Function
	for _, seed := range seeds {
		samples, err := dataset.Generate(dataset.Config{Seed: seed, N: perTemplate * datasetTemplates, SkipVerify: true})
		if err != nil {
			tb.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, s := range samples {
			base := []*ir.Function{s.O0, s.Ref}
			if g := ir.CloneFunc(s.O0); mem2reg.Apply(g, nil) {
				base = append(base, g)
			}
			fns = append(fns, base...)
			for _, f := range base {
				for _, r := range rewrite.Unsound() {
					if !r.Applicable(f) {
						continue
					}
					if g := ir.CloneFunc(f); r.Apply(g, rng) && ir.VerifyFunc(g) == nil {
						fns = append(fns, g)
					}
				}
			}
		}
	}
	for _, src := range shapes {
		m, err := ir.Parse(src)
		if err != nil {
			tb.Fatalf("%v\n%s", err, src)
		}
		for _, f := range m.Funcs {
			if err := ir.VerifyFunc(f); err != nil {
				tb.Fatalf("%v\n%s", err, src)
			}
			fns = append(fns, f)
		}
	}
	return fns
}

// shapes are what no template emits: phis that swap (every one reads
// before any is assigned), a switch into phis beside two cases on one
// edge, allocas re-executed in a loop with their addresses and a
// global's observed by a call, and a use of undef.
var shapes = []string{
	`define i32 @swap(i32 %n, i32 %x, i32 %y) {
entry:
  br label %loop
loop:
  %a = phi i32 [ %x, %entry ], [ %b, %loop ]
  %b = phi i32 [ %y, %entry ], [ %a, %loop ]
  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i32 %i, 1
  %c = icmp ult i32 %i1, 5
  br i1 %c, label %loop, label %out
out:
  %r = sub i32 %a, %b
  ret i32 %r
}`,
	`define i32 @sw(i32 %x, i32 %y) {
entry:
  switch i32 %x, label %d [ i32 0, label %j i32 1, label %m i32 2, label %m ]
m:
  %t = add i32 %y, 1
  br label %j
d:
  br label %j
j:
  %r = phi i32 [ %x, %entry ], [ %t, %m ], [ 7, %d ]
  %s = phi i32 [ %y, %entry ], [ %t, %m ], [ %x, %d ]
  %u = sub i32 %r, %s
  ret i32 %u
}`,
	`declare i32 @obs(ptr, ptr, ptr)
define i32 @cells(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i32 [ undef, %entry ], [ %v, %loop ]
  %p = alloca i32
  %q = alloca i32
  %u = load i32, ptr %p
  store i32 %i, ptr %p
  store i32 %n, ptr %q
  %v = call i32 @obs(ptr %p, ptr %q, ptr @g)
  %i1 = add i32 %i, 1
  %c = icmp ult i32 %i1, 3
  br i1 %c, label %loop, label %out
out:
  %f = freeze i32 %u
  %r = add i32 %acc, %f
  ret i32 %r
}`,
}

// boundary values are tried (masked to width by Run) alongside random
// ones: folds break, and UB and poison appear, at sign and overflow
// edges.
var boundary = []uint64{0, 1, 2, 7, 8, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0x7fffffff, 0x80000000,
	0xffffffff, 0x7fffffffffffffff, 0x8000000000000000, ^uint64(0), ^uint64(1)}

// randArgs draws one argument list: half boundary values, half random
// bits, one in twenty poison (with its bits left set: a poison
// argument's pattern reaches call observations).
func randArgs(f *ir.Function, rng *rand.Rand) []Val {
	args := make([]Val, len(f.Params))
	for i := range args {
		if rng.Intn(2) == 0 {
			args[i] = V(boundary[rng.Intn(len(boundary))])
		} else {
			args[i] = V(rng.Uint64())
		}
		args[i].Poison = rng.Intn(20) == 0
	}
	return args
}

// nonPhi is the number of steps one pass over every instruction takes.
func nonPhi(f *ir.Function) int {
	n := 0
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op != ir.OpPhi {
			n++
		}
	})
	return n
}

// hasBackEdgePhi reports whether some phi of f has an incoming edge
// from its own block or a later one: a loop header's phi.
func hasBackEdgePhi(f *ir.Function) bool {
	pos := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		pos[b] = i
	}
	found := false
	f.ForEachInstr(func(b *ir.Block, in *ir.Instr) {
		for _, inc := range in.Incs {
			found = found || pos[inc.Block] >= pos[b]
		}
	})
	return found
}

// tally is what a differential run observed, for the floors.
type tally struct {
	runs, ub, calls, stepLimit, backEdgePhi int
}

// checkAgainstRef runs f on args under Run and under the reference with
// the default limits, with a limit of exactly one pass over f's
// instructions (it trips only when a block runs twice) and with a
// random lower one (it trips mid-function), and requires the same
// outcome field for field and the same error text each time.
func checkAgainstRef(t *testing.T, f *ir.Function, args []Val, rng *rand.Rand, tl *tally) {
	t.Helper()
	n := nonPhi(f)
	for i, cfg := range []Config{DefaultConfig(), {maxSteps: n}, {maxSteps: 1 + rng.Intn(max(n, 1))}} {
		got, gerr := Run(f, args, cfg)
		want, werr := refRun(f, args, cfg)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxSteps %d, args %v:\n got %+v, %v\nwant %+v, %v\n%s", cfg.maxSteps, args, got, gerr, want, werr, ir.FuncString(f))
		}
		tl.runs++
		switch {
		case errors.Is(gerr, errStepLimit):
			tl.stepLimit++
			if i == 1 && hasBackEdgePhi(f) {
				tl.backEdgePhi++
			}
		case gerr == nil:
			if got.UB {
				tl.ub++
			}
			tl.calls += len(got.Calls)
		}
	}
}

// TestRunMatchesReferenceOnCorpus: on every function the benchmark's
// labeller interprets, Run answers as the reference executor in
// ref_test.go does — error text, UB, UBReason, Ret and Calls, argument
// list by argument list. The floors keep it from passing vacuously.
func TestRunMatchesReferenceOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tl tally
	fns := corpusFuncs(t, 2, 7, 19)
	for _, f := range fns {
		for try := 0; try < 16; try++ {
			checkAgainstRef(t, f, randArgs(f, rng), rng, &tl)
		}
	}
	t.Logf("%d functions: %+v", len(fns), tl)
	if tl.runs < 50000 || tl.ub < 1000 || tl.calls < 500 || tl.stepLimit < 1 || tl.backEdgePhi < 1 {
		t.Errorf("floors (50000 runs, 1000 UB, 500 calls, 1 step limit, 1 loop back-edge through a phi) not met: %+v", tl)
	}
}

// FuzzRunVsReference: whatever parses and passes ir.VerifyFunc, Run and
// the reference agree on. Seeds: one sample of every template with its
// mutants.
func FuzzRunVsReference(f *testing.F) {
	for i, fn := range corpusFuncs(f, 1, 7) {
		f.Add(ir.FuncString(fn), int64(i))
	}
	f.Add(ptrICmp, int64(0))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for _, fn := range m.Funcs {
			if ir.VerifyFunc(fn) != nil {
				continue
			}
			for try := 0; try < 4; try++ {
				checkAgainstRef(t, fn, randArgs(fn, rng), rng, new(tally))
			}
		}
	})
}

// ptrICmp compares two pointers, which ir.VerifyFunc accepts and Run
// does not model.
const ptrICmp = "define i1 @f(i32 %a) {\n  %p = alloca i32\n  %q = alloca i32\n  %c = icmp eq ptr %p, %q\n  ret i1 %c\n}"

// TestRunTerminatesOnIllFormed: functions the parser accepts and the
// verifier would reject — no blocks, an empty block, a block of only
// phis, a block that falls off its end, a branch out of the function —
// are an error, not a hang (the step counter ticks only on non-phi
// instructions) and not a nil dereference; so is an icmp on pointers,
// which the verifier accepts.
func TestRunTerminatesOnIllFormed(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"icmp on pointers", ptrICmp, "interp: icmp on non-integer operands"},
		{"empty body", "define i32 @f(i32 %0) {\n}", "interp: block entry does not end in a terminator"},
		{"phi-only block", "define i32 @f(i32 %a) {\nentry:\n  br label %l\nl:\n  %p = phi i32 [ %a, %entry ]\n}", "interp: block l does not end in a terminator"},
		{"falls off the end", "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n}", "interp: block entry does not end in a terminator"},
	} {
		f, err := ir.ParseFunc(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runWithDeadline(t, tc.name, f, []Val{V(1)}, tc.want)
	}
	runWithDeadline(t, "no blocks", &ir.Function{NameStr: "f", RetTy: ir.Void}, nil, "interp: function has no blocks")
	f, g := mustParse(t, "define i32 @f(i32 %a) {\nentry:\n  br label %next\nnext:\n  ret i32 %a\n}"), mustParse(t, "define i32 @g(i32 %a) {\nentry:\n  ret i32 %a\n}")
	f.Blocks[0].Instrs[0].Succs[0] = g.Blocks[0]
	runWithDeadline(t, "branch out of the function", f, []Val{V(1)}, "interp: block entry branches to a block outside the function")
	f.Blocks[0].Instrs[0].Succs = nil
	runWithDeadline(t, "branch to no block", f, []Val{V(1)}, "interp: block entry branches to a block outside the function")
}

// TestRunReadsForeignOperandsAsZero: an operand that is no value of f's
// own — another function's parameter, instruction or alloca, or one of
// f's instructions that defines no value (a store) — reads as the zero
// Val, as it does in refRun, where such a value was never assigned.
// A call observes what it reads, so its argument list shows each one.
func TestRunReadsForeignOperandsAsZero(t *testing.T) {
	other := mustParse(t, "define i32 @o(i32 %b) {\n  %s = add i32 %b, 1\n  %q = alloca i32\n  ret i32 %s\n}")
	f := mustParse(t, "define i32 @f(i32 %a) {\n  %p = alloca i32\n  store i32 %a, ptr %p\n  %v = call i32 @obs(i32 %a)\n  ret i32 %v\n}")
	store, call := f.Blocks[0].Instrs[1], f.Blocks[0].Instrs[2]
	foreign := []ir.Value{other.Params[0], other.Blocks[0].Instrs[0], other.Blocks[0].Instrs[1], store}
	call.Args = append(call.Args, foreign...) // ill-typed on purpose: only what each reads is under test
	args := []Val{V(5)}
	got, gerr := Run(f, args, DefaultConfig())
	want, werr := refRun(f, args, DefaultConfig())
	if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, %v\nwant %+v, %v", got, gerr, want, werr)
	}
	if len(got.Calls) != 1 || !reflect.DeepEqual(got.Calls[0].Args, []Val{V(5), {}, {}, {}, {}}) {
		t.Errorf("the call observed %+v, want the parameter and four zero Vals", got.Calls)
	}
}

func runWithDeadline(t *testing.T, name string, f *ir.Function, args []Val, want string) {
	t.Helper()
	done := make(chan error, 1) // the one send must not block after a timeout
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, err := Run(f, args, DefaultConfig())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", name, err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Run did not return", name)
	}
}

// TestRunSharesFunction: Run keeps everything it learns in its own
// state — nothing written into the IR, nothing memoized on the function
// — so one function may be interpreted from many goroutines (under
// -race this fails on any write).
func TestRunSharesFunction(t *testing.T) {
	var loop *ir.Function
	for _, f := range corpusFuncs(t, 1, 7) {
		if hasBackEdgePhi(f) {
			loop = f
			break
		}
	}
	if loop == nil {
		t.Fatal("no loop with a phi in the corpus slice")
	}
	args := make([]Val, len(loop.Params))
	for i := range args {
		args[i] = V(5)
	}
	want, werr := refRun(loop, args, DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := Run(loop, args, DefaultConfig()); fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
					t.Errorf("got %+v, %v; want %+v, %v", got, err, want, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// datasetTemplates is the size of dataset's template registry
// (pinned by dataset's TestOneRoundCoversEveryTemplate): a corpus of
// k*datasetTemplates samples holds every template k times.
const datasetTemplates = 36
