package instcombine

import (
	"fmt"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
)

func opt(t *testing.T, src string) (*ir.Function, string) {
	t.Helper()
	f, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := Run(f)
	if err := ir.VerifyFunc(g); err != nil {
		t.Fatalf("optimized function fails verification: %v\n%s", err, ir.FuncString(g))
	}
	return g, ir.FuncString(g)
}

// checkSound verifies that Run's output refines its input via the
// alive checker.
func checkSound(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := Run(f)
	res := alive.VerifyFuncs(f, g, alive.DefaultOptions())
	if res.Verdict == alive.SemanticError {
		t.Fatalf("instcombine produced unsound output!\nsource:\n%s\noutput:\n%s\ndiag: %s",
			src, ir.FuncString(g), res.Diag)
	}
	return g
}

func TestIdentityFolds(t *testing.T) {
	cases := []struct{ name, src, wantInstr string }{
		{"add0", `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 0
  ret i32 %2
}
`, "ret i32 %0"},
		{"mul1", `define i32 @f(i32 noundef %0) {
  %2 = mul i32 %0, 1
  ret i32 %2
}
`, "ret i32 %0"},
		{"xorself", `define i32 @f(i32 noundef %0) {
  %2 = xor i32 %0, %0
  ret i32 %2
}
`, "ret i32 0"},
		{"and-allones", `define i8 @f(i8 noundef %0) {
  %2 = and i8 %0, -1
  ret i8 %2
}
`, "ret i8 %0"},
		{"or-zero", `define i16 @f(i16 noundef %0) {
  %2 = or i16 %0, 0
  ret i16 %2
}
`, "ret i16 %0"},
		{"subself", `define i64 @f(i64 noundef %0) {
  %2 = sub i64 %0, %0
  ret i64 %2
}
`, "ret i64 0"},
		{"sdiv1", `define i32 @f(i32 noundef %0) {
  %2 = sdiv i32 %0, 1
  ret i32 %2
}
`, "ret i32 %0"},
		{"srem-minus1", `define i32 @f(i32 noundef %0) {
  %2 = srem i32 %0, -1
  ret i32 %2
}
`, "ret i32 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, text := opt(t, tc.src)
			if !strings.Contains(text, tc.wantInstr) {
				t.Errorf("output missing %q:\n%s", tc.wantInstr, text)
			}
			checkSound(t, tc.src)
		})
	}
}

func TestConstantChainFolding(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 3
  %3 = add i32 %2, 4
  %4 = add i32 %3, 5
  ret i32 %4
}
`
	g, text := opt(t, src)
	if g.NumInstrs() != 2 {
		t.Errorf("want 2 instructions (add+ret), got %d:\n%s", g.NumInstrs(), text)
	}
	if !strings.Contains(text, "add i32 %0, 12") {
		t.Errorf("want folded constant 12:\n%s", text)
	}
	checkSound(t, src)
}

func TestStrengthReduction(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = mul i32 %0, 8
  %3 = udiv i32 %2, 4
  %4 = urem i32 %3, 16
  ret i32 %4
}
`
	_, text := opt(t, src)
	if strings.Contains(text, "mul") || strings.Contains(text, "udiv") || strings.Contains(text, "urem") {
		t.Errorf("strength reduction missed:\n%s", text)
	}
	checkSound(t, src)
}

func TestSDivByPow2LowersToAshrSequence(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = sdiv i32 %0, 2
  ret i32 %2
}
`
	_, text := opt(t, src)
	if strings.Contains(text, "sdiv") {
		t.Errorf("sdiv by 2 not lowered:\n%s", text)
	}
	if !strings.Contains(text, "ashr") {
		t.Errorf("expected ashr sequence:\n%s", text)
	}
	checkSound(t, src)
}

// TestSDivBySignBitIsLeftAlone: the constant with only bit w-1 set is
// MinInt, not +2^(w-1), and the biased shift is wrong for it at
// x = MinInt (MinInt sdiv MinInt is 1, the shift gives -1). The rule
// must skip it and still fire for 2^(w-2), the largest positive power;
// both are run against the interpreter at the boundary inputs.
func TestSDivBySignBitIsLeftAlone(t *testing.T) {
	for _, w := range []uint{8, 16, 32, 64} {
		minInt := int64(-1) << (w - 1)
		for _, tc := range []struct {
			divisor int64
			lowered bool
		}{{minInt, false}, {1 << (w - 2), true}} {
			src := fmt.Sprintf("define i%d @f(i%d noundef %%0) {\n  %%2 = sdiv i%d %%0, %d\n  ret i%d %%2\n}\n", w, w, w, tc.divisor, w)
			g, text := opt(t, src)
			if got := !strings.Contains(text, "sdiv"); got != tc.lowered {
				t.Errorf("i%d sdiv by %d: lowered=%v, want %v:\n%s", w, tc.divisor, got, tc.lowered, text)
			}
			f, err := ir.ParseFunc(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []int64{minInt, minInt + 1, -1, 0, 1, -(minInt + 1)} {
				args := []interp.Val{interp.V(uint64(x))}
				o1, e1 := interp.Run(f, args, interp.DefaultConfig())
				o2, e2 := interp.Run(g, args, interp.DefaultConfig())
				if e1 != nil || e2 != nil || o1.UB || o2.UB || o1.Ret != o2.Ret {
					t.Errorf("i%d: %d sdiv %d is %+v, instcombine's form gives %+v (%v, %v)", w, x, tc.divisor, o1.Ret, o2.Ret, e1, e2)
				}
			}
		}
	}
}

func TestAllocaRoundTripRemoved(t *testing.T) {
	// The clang -O0 idiom: params spilled to allocas.
	src := `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = alloca i32
  %4 = alloca i32
  store i32 %0, ptr %3
  store i32 %1, ptr %4
  %5 = load i32, ptr %3
  %6 = load i32, ptr %4
  %7 = add nsw i32 %5, %6
  ret i32 %7
}
`
	g, text := opt(t, src)
	if strings.Contains(text, "alloca") || strings.Contains(text, "store") || strings.Contains(text, "load") {
		t.Errorf("alloca round trip not removed:\n%s", text)
	}
	if g.NumInstrs() != 2 {
		t.Errorf("want add+ret, got %d instrs:\n%s", g.NumInstrs(), text)
	}
	checkSound(t, src)
}

func TestPaperFig8Shape(t *testing.T) {
	// store 0; load -> ret 0 (paper Figure 8, single-cell version).
	src := `define i64 @get_d() {
  %1 = alloca i64
  store i64 0, ptr %1
  %2 = load i64, ptr %1
  ret i64 %2
}
`
	g, text := opt(t, src)
	if g.NumInstrs() != 1 || !strings.Contains(text, "ret i64 0") {
		t.Errorf("want single ret i64 0:\n%s", text)
	}
}

func TestEscapedAllocaPreserved(t *testing.T) {
	// The alloca address escapes into a call: must keep memory ops.
	src := `declare void @sink(ptr)

define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  call void @sink(ptr %2)
  %3 = load i32, ptr %2
  ret i32 %3
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := Run(m.Funcs[0])
	text := ir.FuncString(g)
	if !strings.Contains(text, "alloca") || !strings.Contains(text, "store") || !strings.Contains(text, "load") {
		t.Errorf("escaped alloca was wrongly optimized:\n%s", text)
	}
}

func TestCallPreservedThroughForwarding(t *testing.T) {
	// A call between store and load must block forwarding only for
	// escaped allocas.
	src := `declare i32 @pure(i32)

define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = call i32 @pure(i32 %0)
  %4 = load i32, ptr %2
  %5 = add i32 %3, %4
  ret i32 %5
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := Run(m.Funcs[0])
	text := ir.FuncString(g)
	if strings.Contains(text, "load") {
		t.Errorf("non-escaping alloca load should forward across the call:\n%s", text)
	}
	if !strings.Contains(text, "call i32 @pure") {
		t.Errorf("call must be preserved:\n%s", text)
	}
}

func TestICmpCanonicalizationAndFolds(t *testing.T) {
	src := `define i1 @f(i32 noundef %0) {
  %2 = icmp sgt i32 5, %0
  ret i1 %2
}
`
	_, text := opt(t, src)
	if !strings.Contains(text, "icmp slt i32 %0, 5") {
		t.Errorf("constant not swapped to RHS:\n%s", text)
	}

	src2 := `define i1 @f(i32 noundef %0) {
  %2 = add i32 %0, 7
  %3 = icmp eq i32 %2, 10
  ret i1 %3
}
`
	_, text2 := opt(t, src2)
	if !strings.Contains(text2, "icmp eq i32 %0, 3") {
		t.Errorf("add not folded into icmp:\n%s", text2)
	}
	checkSound(t, src2)
}

func TestKnownBitsICmpFold(t *testing.T) {
	src := `define i1 @f(i32 noundef %0) {
  %2 = and i32 %0, 7
  %3 = icmp ult i32 %2, 8
  ret i1 %3
}
`
	_, text := opt(t, src)
	if !strings.Contains(text, "ret i1 true") {
		t.Errorf("tautological compare not folded:\n%s", text)
	}
	checkSound(t, src)
}

func TestSelectFolds(t *testing.T) {
	src := `define i32 @f(i1 noundef %0) {
  %2 = select i1 %0, i32 1, i32 0
  ret i32 %2
}
`
	_, text := opt(t, src)
	if !strings.Contains(text, "zext i1 %0 to i32") {
		t.Errorf("select 1/0 not turned into zext:\n%s", text)
	}
	checkSound(t, src)
}

func TestSignSplatSelect(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = icmp slt i32 %0, 0
  %3 = select i1 %2, i32 -1, i32 0
  ret i32 %3
}
`
	_, text := opt(t, src)
	if !strings.Contains(text, "ashr i32 %0, 31") {
		t.Errorf("sign splat not recognized:\n%s", text)
	}
	checkSound(t, src)
}

func TestCastChains(t *testing.T) {
	src := `define i64 @f(i8 noundef %0) {
  %2 = zext i8 %0 to i16
  %3 = zext i16 %2 to i32
  %4 = zext i32 %3 to i64
  ret i64 %4
}
`
	g, text := opt(t, src)
	if g.NumInstrs() != 2 || !strings.Contains(text, "zext i8 %0 to i64") {
		t.Errorf("zext chain not merged:\n%s", text)
	}
	checkSound(t, src)
}

func TestCFGUntouched(t *testing.T) {
	// InstCombine must not remove blocks even when a branch is
	// decidable — that's simplifycfg's job (paper Fig. 10 relies on
	// the distinction).
	src := `define i32 @f(i32 noundef %0) {
entry:
  %1 = icmp eq i32 0, 0
  br i1 %1, label %a, label %b

a:
  ret i32 1

b:
  ret i32 2
}
`
	g, _ := opt(t, src)
	if len(g.Blocks) != 3 {
		t.Errorf("block count changed: %d", len(g.Blocks))
	}
}

func TestIdempotent(t *testing.T) {
	src := `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = alloca i32
  store i32 %0, ptr %3
  %4 = load i32, ptr %3
  %5 = mul i32 %4, 4
  %6 = add i32 %5, 0
  %7 = sub i32 %6, %1
  ret i32 %7
}
`
	f, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	once := Run(f)
	twice := Run(once)
	if ir.FuncString(once) != ir.FuncString(twice) {
		t.Errorf("pass not idempotent:\nonce:\n%s\ntwice:\n%s", ir.FuncString(once), ir.FuncString(twice))
	}
}

func TestOptimizationImprovesCost(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = load i32, ptr %2
  %4 = mul i32 %3, 16
  %5 = udiv i32 %4, 2
  ret i32 %5
}
`
	f, _ := ir.ParseFunc(src)
	g := Run(f)
	before, after := costmodel.Measure(f), costmodel.Measure(g)
	if after.Latency >= before.Latency {
		t.Errorf("latency not improved: %d -> %d", before.Latency, after.Latency)
	}
	if after.ICount >= before.ICount {
		t.Errorf("icount not improved: %d -> %d", before.ICount, after.ICount)
	}
}

func TestNegationFolds(t *testing.T) {
	src := `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = sub i32 0, %1
  %4 = add i32 %0, %3
  ret i32 %4
}
`
	_, text := opt(t, src)
	if !strings.Contains(text, "sub i32 %0, %1") {
		t.Errorf("add of negation not rewritten to sub:\n%s", text)
	}
	checkSound(t, src)
}

func TestXorChainCancel(t *testing.T) {
	src := `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = xor i32 %0, %1
  %4 = xor i32 %3, %1
  ret i32 %4
}
`
	g, text := opt(t, src)
	if g.NumInstrs() != 1 || !strings.Contains(text, "ret i32 %0") {
		t.Errorf("xor chain not cancelled:\n%s", text)
	}
	checkSound(t, src)
}

// sscanfTempNumber is what combiner.fresh ran on every name before
// tempNumber: the reference the hand parser must agree with.
func sscanfTempNumber(name string) (int, bool) {
	var n int
	_, err := fmt.Sscanf(name, "t%d", &n)
	return n, err == nil
}

// TestTempNumberMatchesSscanf: fresh must start above every existing
// t<digits> name, prefix matches included, and — stepAt's output is
// not renumbered, so the number is visible — no higher than Sscanf put
// it.
func TestTempNumberMatchesSscanf(t *testing.T) {
	for _, name := range []string{
		"t7", "t07", "t12x", "t", "tx", "7", "", "t-3",
		"t+5", "t-", "t0", "t12_", "t1_0", "t_1", "t12.sel", "T7", "tt7", "xt7", "m2r1",
		"t9223372036854775807", "t9223372036854775808", "t00000000000000000000012",
	} {
		want, wantOK := sscanfTempNumber(name)
		if got, ok := tempNumber(name); ok != wantOK || ok && got != want {
			t.Errorf("tempNumber(%q) = %d, %v; Sscanf reads %d, %v", name, got, ok, want, wantOK)
		}
	}

	f, err := ir.ParseFunc(`define i32 @f(i32 noundef %t40x, i32 noundef %t-50) {
entry:
  %t7 = add i32 %t40x, %t-50
  %t012 = mul i32 %t7, 3
  ret i32 %t012
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := (&combiner{fn: f}).fresh(); got != "t41" {
		t.Errorf("first fresh name over t7, t012, t40x, t-50 = %s, want t41", got)
	}
}
