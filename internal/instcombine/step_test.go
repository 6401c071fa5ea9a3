package instcombine_test

import (
	"fmt"
	"strings"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
)

// TestStepAtFalseLeavesFunctionUntouched is the contract StepFirst
// rests on: it probes positions on the function itself, so a StepAt
// that reports false must not have changed anything — not an operand
// order, not a flag, not the instruction list. The test walks the
// corpus along StepFirst's own trajectory: every position of every
// state the combine fixpoint passes through, restarted after each
// memory cleanup so the states behind the allocas are probed too.
func TestStepAtFalseLeavesFunctionUntouched(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 7, N: 16 * datasetTemplates, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, s := range samples {
		f := ir.CloneFunc(s.O0)
	states:
		for state := 0; state < 64; state++ {
			before := ir.FuncString(f)
			instrs := layout(f)
			for bi := range f.Blocks {
				for ii := range f.Blocks[bi].Instrs {
					if instcombine.StepAt(f, bi, ii, true) {
						continue states
					}
					probes++
					after := layout(f)
					if len(after) != len(instrs) {
						t.Fatalf("%s: StepAt(%d,%d) reported false but changed the instruction count", s.Name, bi, ii)
					}
					for i := range instrs {
						if after[i] != instrs[i] {
							t.Fatalf("%s: StepAt(%d,%d) reported false but replaced an instruction", s.Name, bi, ii)
						}
					}
					if got := ir.FuncString(f); got != before {
						t.Fatalf("%s: StepAt(%d,%d) reported false but changed the function:\n%s\nwas:\n%s", s.Name, bi, ii, got, before)
					}
				}
			}
			// Fixpoint: no position fires.
			if !instcombine.ForwardLoadsStep(f, true) && !instcombine.RemoveDeadAllocasStep(f, true) {
				break
			}
		}
	}
	if probes < 10000 {
		t.Errorf("only %d non-firing probes; the corpus no longer exercises the contract", probes)
	}
}

func layout(f *ir.Function) []*ir.Instr {
	var out []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) { out = append(out, in) })
	return out
}

// TestStepFirstIsTheFirstFiringStepAt: StepFirst on f and the first
// firing StepAt on a copy leave the same function behind.
func TestStepFirstIsTheFirstFiringStepAt(t *testing.T) {
	samples, err := dataset.Generate(dataset.Config{Seed: 7, N: datasetTemplates, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, s := range samples {
		f, g := ir.CloneFunc(s.O0), ir.CloneFunc(s.O0)
		for state := 0; state < 64; state++ {
			want := false
		scan:
			for bi := range g.Blocks {
				for ii := range g.Blocks[bi].Instrs {
					// Probe on a throwaway copy, as Sites used to.
					if instcombine.StepAt(ir.CloneFunc(g), bi, ii, true) {
						want = instcombine.StepAt(g, bi, ii, true)
						break scan
					}
				}
			}
			if got := instcombine.StepFirst(f, true); got != want {
				t.Fatalf("%s: StepFirst = %v, first firing StepAt = %v", s.Name, got, want)
			}
			if ir.FuncString(f) != ir.FuncString(g) {
				t.Fatalf("%s: StepFirst left\n%s\nfirst firing StepAt left\n%s", s.Name, ir.FuncString(f), ir.FuncString(g))
			}
			if !want {
				break
			}
			fired++
		}
	}
	if fired == 0 {
		t.Error("no step ever fired; the test is vacuous")
	}
}

// datasetTemplates is the size of dataset's template registry
// (pinned by dataset's TestOneRoundCoversEveryTemplate): a corpus of
// k*datasetTemplates samples holds every template k times.
const datasetTemplates = 36

// TestRemoveDeadAllocasDecidesFirst: the dead set is decided before any
// store goes. Removing the store of %b's address into the dead %a takes
// away %b's only escape, but %b's own store waits for the next step —
// also after 298 other dead allocas, past the 16 the set holds on the
// stack.
func TestRemoveDeadAllocasDecidesFirst(t *testing.T) {
	for _, pad := range []int{0, 298} {
		var src strings.Builder
		src.WriteString("define void @f() {\n")
		for i := range pad {
			fmt.Fprintf(&src, "  %%p%d = alloca i32\n  store i32 %d, ptr %%p%d\n", i, i, i)
		}
		src.WriteString("  %a = alloca ptr\n  %b = alloca i32\n  store i32 1, ptr %b\n  store ptr %b, ptr %a\n  ret void\n}\n")
		f, err := ir.ParseFunc(src.String())
		if err != nil {
			t.Fatal(err)
		}
		if !instcombine.RemoveDeadAllocasStep(f, true) {
			t.Fatalf("%d allocas before %%a: no dead alloca found", pad)
		}
		want := "define void @f() {\n  %b = alloca i32\n  store i32 1, ptr %b\n  ret void\n}\n"
		if got := ir.FuncString(f); got != want {
			t.Fatalf("%d allocas before %%a: one step leaves\n%s\nwant\n%s", pad, got, want)
		}
		if !instcombine.RemoveDeadAllocasStep(f, true) || f.NumInstrs() != 1 {
			t.Fatalf("%d allocas before %%a: the second step leaves\n%s", pad, ir.FuncString(f))
		}
	}
}
