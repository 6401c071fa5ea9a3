// Emergent optimizations: shows transformations the rule library can
// reach that the instcombine reference pass cannot — mem2reg-style
// alloca promotion across branches and simplifycfg-style
// diamond-to-select folding (the paper's Fig. 10 behaviour) — each
// proven equivalent by the verifier.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
	"veriopt/internal/rewrite"
)

const src = `define i32 @clamp_rescale(i32 noundef %0) {
entry:
  %1 = alloca i32
  store i32 %0, ptr %1
  %2 = icmp ult i32 %0, 10
  br i1 %2, label %small, label %big

small:
  br label %done

big:
  %3 = load i32, ptr %1
  %4 = add i32 %3, -12
  %5 = lshr i32 %4, 2
  %6 = add i32 %5, 3
  br label %done

done:
  %7 = phi i32 [ 0, %small ], [ %6, %big ]
  ret i32 %7
}
`

func main() {
	f, err := ir.ParseFunc(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== input:")
	fmt.Print(ir.FuncString(f))

	ref := instcombine.Run(f)
	fmt.Printf("\n== instcombine (latency %d -> %d):\n", costmodel.Latency(f), costmodel.Latency(ref))
	fmt.Print(ir.FuncString(ref))

	// Apply the emergent rule set: sound instcombine steps plus the
	// mem2reg- and simplifycfg-style extras, to a fixpoint.
	g := ir.CloneFunc(f)
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, r := range append(rewrite.Sound(), rewrite.Extra()...) {
			if r.Name == rewrite.CosmeticReorder {
				continue
			}
			if r.Applicable(g) && r.Apply(g, rng) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	ir.RenumberFunc(g)
	fmt.Printf("\n== with emergent extras (latency %d):\n", costmodel.Latency(g))
	fmt.Print(ir.FuncString(g))

	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	fmt.Printf("\nverifier verdict: %s\n", res.Verdict)
	fmt.Printf("instcombine latency %d, emergent latency %d — the extras win %d cycles that the\nhand-written pass leaves behind, and the verifier proves they are safe.\n",
		costmodel.Latency(ref), costmodel.Latency(g), costmodel.Latency(ref)-costmodel.Latency(g))
}
