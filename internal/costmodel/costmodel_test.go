package costmodel

import (
	"testing"

	"veriopt/internal/ir"
)

func parse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLatencyOrdering(t *testing.T) {
	cheap := parse(t, `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 1
  ret i32 %2
}
`)
	expensive := parse(t, `define i32 @f(i32 noundef %0) {
  %2 = sdiv i32 %0, 7
  ret i32 %2
}
`)
	if Latency(cheap) >= Latency(expensive) {
		t.Errorf("add (%d) should be cheaper than sdiv (%d)", Latency(cheap), Latency(expensive))
	}
}

func TestWideDivisionCostsMore(t *testing.T) {
	d32 := parse(t, `define i32 @f(i32 noundef %0) {
  %2 = udiv i32 %0, 7
  ret i32 %2
}
`)
	d64 := parse(t, `define i64 @f(i64 noundef %0) {
  %2 = udiv i64 %0, 7
  ret i64 %2
}
`)
	if Latency(d64) <= Latency(d32) {
		t.Error("64-bit division should cost more than 32-bit")
	}
}

func TestFreeInstructions(t *testing.T) {
	f := parse(t, `define i32 @f(i32 noundef %0) {
entry:
  %1 = alloca i32
  br i1 true, label %a, label %b

a:
  br label %b

b:
  %2 = phi i32 [ 0, %entry ], [ 1, %a ]
  ret i32 %2
}
`)
	// alloca and phi must contribute zero latency and zero bytes.
	base := Latency(f)
	sizeBase := binarySize(f)
	// Manually remove the alloca and phi and confirm no metric change
	// beyond the removed instructions' zero cost.
	g := ir.CloneFunc(f)
	ir.RemoveInstr(g.Blocks[0].Instrs[0]) // alloca
	if Latency(g) != base {
		t.Errorf("alloca latency not free: %d vs %d", Latency(g), base)
	}
	if binarySize(g) != sizeBase {
		t.Errorf("alloca size not free: %d vs %d", binarySize(g), sizeBase)
	}
}

func TestBigImmediateCostsExtraBytes(t *testing.T) {
	small := parse(t, `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 100
  ret i32 %2
}
`)
	big := parse(t, `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 1000000
  ret i32 %2
}
`)
	if binarySize(big) <= binarySize(small) {
		t.Error("large immediates should need a materializing instruction")
	}
}

// TestEncodedBytesImmediates pins the per-operand materialization
// accounting: every out-of-range constant operand costs its own mov,
// and the encodable range is the symmetric ±4095 implied by AArch64's
// 12-bit unsigned add/sub immediates (negative constants fold into
// the opposite opcode).
func TestEncodedBytesImmediates(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int // binarySize minus the 8-byte prologue/epilogue
	}{
		{"small-imm", "%2 = add i32 %0, 100", 4 + 4},
		{"max-imm", "%2 = add i32 %0, 4095", 4 + 4},
		{"min-imm", "%2 = add i32 %0, -4095", 4 + 4},
		{"just-over", "%2 = add i32 %0, 4096", 8 + 4},
		{"just-under", "%2 = add i32 %0, -4096", 8 + 4},
		{"big-imm", "%2 = add i32 %0, 1000000", 8 + 4},
		{"two-big-imms", "%2 = mul i32 70000, 81000", 12 + 4},
		{"big-and-small", "%2 = shl i32 70000, 3", 8 + 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := parse(t, "define i32 @f(i32 noundef %0) {\n  "+tc.body+"\n  ret i32 %2\n}\n")
			if got := binarySize(f) - 8; got != tc.want {
				t.Errorf("%s: encoded bytes = %d, want %d", tc.body, got, tc.want)
			}
		})
	}
}

func TestSpeedupClamps(t *testing.T) {
	a := Metrics{Latency: 10}
	b := Metrics{Latency: 0}
	if s := Speedup(a, b); s != 10 {
		t.Errorf("Speedup with zero-latency target = %v, want clamp to 10", s)
	}
	if s := Speedup(b, b); s != 1 {
		t.Errorf("Speedup(0,0) = %v, want 1", s)
	}
}

func TestMeasureConsistent(t *testing.T) {
	f := parse(t, `define i32 @f(i32 noundef %0) {
  %2 = mul i32 %0, 3
  %3 = add i32 %2, 1
  ret i32 %3
}
`)
	m := Measure(f)
	if m.Latency != Latency(f) || m.ICount != instCount(f) || m.Size != binarySize(f) {
		t.Errorf("Measure disagrees with individual metrics: %+v", m)
	}
	if m.ICount != 3 {
		t.Errorf("ICount = %d, want 3", m.ICount)
	}
}
