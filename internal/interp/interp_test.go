package interp

import (
	"testing"
	"testing/quick"

	"veriopt/internal/ir"
)

func mustParse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f
}

func run1(t *testing.T, f *ir.Function, args ...Val) *Outcome {
	t.Helper()
	out, err := Run(f, args, DefaultConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func TestArith(t *testing.T) {
	f := mustParse(t, `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %2 = add i32 %0, %1
  %3 = mul i32 %2, 3
  %4 = sub i32 %3, %1
  ret i32 %4
}
`)
	out := run1(t, f, V(10), V(4))
	// ((10+4)*3)-4 = 38
	if out.UB || out.Ret.Poison || out.Ret.Bits != 38 {
		t.Errorf("got %+v, want 38", out)
	}
}

func TestWrapAround(t *testing.T) {
	f := mustParse(t, `define i8 @f(i8 noundef %0) {
  %2 = add i8 %0, 1
  ret i8 %2
}
`)
	out := run1(t, f, V(255))
	if out.Ret.Bits != 0 || out.Ret.Poison {
		t.Errorf("i8 255+1 = %+v, want 0", out.Ret)
	}
}

func TestNSWPoison(t *testing.T) {
	f := mustParse(t, `define i8 @f(i8 noundef %0) {
  %2 = add nsw i8 %0, 1
  ret i8 %2
}
`)
	out := run1(t, f, V(127)) // 127+1 overflows signed i8
	if !out.Ret.Poison {
		t.Errorf("nsw overflow: got %+v, want poison", out.Ret)
	}
	out = run1(t, f, V(126))
	if out.Ret.Poison || out.Ret.Bits != 127 {
		t.Errorf("126+1 = %+v, want 127", out.Ret)
	}
}

func TestNUWPoison(t *testing.T) {
	f := mustParse(t, `define i8 @f(i8 noundef %0) {
  %2 = sub nuw i8 %0, 10
  ret i8 %2
}
`)
	if out := run1(t, f, V(5)); !out.Ret.Poison {
		t.Error("5 -nuw 10 should be poison")
	}
	if out := run1(t, f, V(50)); out.Ret.Poison || out.Ret.Bits != 40 {
		t.Errorf("50 -nuw 10 = %+v, want 40", out.Ret)
	}
}

func TestDivUB(t *testing.T) {
	f := mustParse(t, `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %2 = sdiv i32 %0, %1
  ret i32 %2
}
`)
	if out := run1(t, f, V(10), V(0)); !out.UB {
		t.Error("sdiv by zero: want UB")
	}
	// INT_MIN / -1 overflows.
	if out := run1(t, f, V(0x80000000), V(0xFFFFFFFF)); !out.UB {
		t.Error("INT_MIN sdiv -1: want UB")
	}
	if out := run1(t, f, V(uint64(0xFFFFFFF9)), V(3)); out.UB || int32(out.Ret.Bits) != -2 {
		t.Errorf("-7 sdiv 3 = %+v, want -2", out.Ret)
	}
}

func TestShiftSemantics(t *testing.T) {
	f := mustParse(t, `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %2 = shl i32 %0, %1
  ret i32 %2
}
`)
	if out := run1(t, f, V(1), V(32)); !out.Ret.Poison {
		t.Error("shl by width: want poison")
	}
	if out := run1(t, f, V(1), V(31)); out.Ret.Poison || out.Ret.Bits != 0x80000000 {
		t.Errorf("1<<31 = %+v", out.Ret)
	}

	g := mustParse(t, `define i32 @g(i32 noundef %0) {
  %2 = ashr i32 %0, 4
  ret i32 %2
}
`)
	if out := run1(t, g, V(0xFFFFFF00)); out.Ret.Bits != 0xFFFFFFF0 {
		t.Errorf("ashr sign fill = %x, want fffffff0", out.Ret.Bits)
	}
}

func TestBranchesAndPhi(t *testing.T) {
	f := mustParse(t, `define i32 @abs(i32 noundef %0) {
entry:
  %1 = icmp slt i32 %0, 0
  br i1 %1, label %neg, label %pos

neg:
  %2 = sub i32 0, %0
  br label %end

pos:
  br label %end

end:
  %3 = phi i32 [ %2, %neg ], [ %0, %pos ]
  ret i32 %3
}
`)
	if out := run1(t, f, V(0xFFFFFFFB)); out.Ret.Bits != 5 { // abs(-5)
		t.Errorf("abs(-5) = %d, want 5", out.Ret.Bits)
	}
	if out := run1(t, f, V(7)); out.Ret.Bits != 7 {
		t.Errorf("abs(7) = %d, want 7", out.Ret.Bits)
	}
}

func TestLoop(t *testing.T) {
	f := mustParse(t, `define i64 @sum(i64 noundef %0) {
entry:
  br label %loop

loop:
  %i = phi i64 [ 0, %entry ], [ %inext, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %accnext, %loop ]
  %accnext = add i64 %acc, %i
  %inext = add i64 %i, 1
  %cond = icmp ult i64 %inext, %0
  br i1 %cond, label %loop, label %done

done:
  ret i64 %accnext
}
`)
	if out := run1(t, f, V(5)); out.Ret.Bits != 10 { // 0+1+2+3+4
		t.Errorf("sum(5) = %d, want 10", out.Ret.Bits)
	}
}

func TestStepLimit(t *testing.T) {
	f := mustParse(t, `define void @spin() {
entry:
  br label %loop

loop:
  br label %loop
}
`)
	_, err := Run(f, nil, Config{maxSteps: 100})
	if err != errStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestMemory(t *testing.T) {
	f := mustParse(t, `define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = load i32, ptr %2
  %4 = add i32 %3, 1
  store i32 %4, ptr %2
  %5 = load i32, ptr %2
  ret i32 %5
}
`)
	if out := run1(t, f, V(41)); out.Ret.Bits != 42 {
		t.Errorf("got %d, want 42", out.Ret.Bits)
	}
}

func TestUninitLoadIsPoison(t *testing.T) {
	f := mustParse(t, `define i32 @f() {
  %1 = alloca i32
  %2 = load i32, ptr %1
  ret i32 %2
}
`)
	if out := run1(t, f); !out.Ret.Poison {
		t.Errorf("uninitialized load = %+v, want poison", out.Ret)
	}
}

func TestCallObservation(t *testing.T) {
	f := mustParse(t, `define i32 @f(i32 noundef %0) {
  %2 = call i32 @ext(i32 %0)
  %3 = call i32 @ext(i32 %0)
  %4 = add i32 %2, %3
  ret i32 %4
}
`)
	out := run1(t, f, V(3))
	if len(out.Calls) != 2 {
		t.Fatalf("observed %d calls, want 2", len(out.Calls))
	}
	if out.Calls[0].Site.Callee != "ext" || out.Calls[0].Args[0].Bits != 3 {
		t.Errorf("call obs = %+v", out.Calls[0])
	}
	// Deterministic call results: same callee+args give same value.
	if out.Ret.Bits%2 != 0 {
		t.Error("two identical calls should return identical values")
	}
}

func TestBranchOnPoisonIsUB(t *testing.T) {
	f := mustParse(t, `define i32 @f(i8 noundef %0) {
entry:
  %1 = add nsw i8 %0, 1
  %2 = icmp sgt i8 %1, 0
  br i1 %2, label %a, label %b

a:
  ret i32 1

b:
  ret i32 0
}
`)
	out := run1(t, f, V(127))
	if !out.UB {
		t.Error("branch on poison: want UB")
	}
}

func TestSelectPassesPoisonThroughArms(t *testing.T) {
	f := mustParse(t, `define i8 @f(i8 noundef %0, i1 noundef %1) {
  %3 = add nsw i8 %0, 1
  %4 = select i1 %1, i8 %3, i8 0
  ret i8 %4
}
`)
	if out := run1(t, f, V(127), V(1)); !out.Ret.Poison {
		t.Error("select picking poison arm: want poison")
	}
	if out := run1(t, f, V(127), V(0)); out.Ret.Poison || out.Ret.Bits != 0 {
		t.Errorf("select picking clean arm = %+v, want 0", out.Ret)
	}
}

func TestFreezeStopsPoison(t *testing.T) {
	f := mustParse(t, `define i8 @f(i8 noundef %0) {
  %2 = add nsw i8 %0, 1
  %3 = freeze i8 %2
  ret i8 %3
}
`)
	if out := run1(t, f, V(127)); out.Ret.Poison {
		t.Error("freeze must stop poison")
	}
}

func TestCasts(t *testing.T) {
	f := mustParse(t, `define i64 @f(i8 noundef %0) {
  %2 = sext i8 %0 to i64
  ret i64 %2
}
`)
	if out := run1(t, f, V(0x80)); out.Ret.Bits != 0xFFFFFFFFFFFFFF80 {
		t.Errorf("sext i8 -128 = %x", out.Ret.Bits)
	}
	g := mustParse(t, `define i64 @g(i8 noundef %0) {
  %2 = zext i8 %0 to i64
  ret i64 %2
}
`)
	if out := run1(t, g, V(0x80)); out.Ret.Bits != 0x80 {
		t.Errorf("zext i8 0x80 = %x", out.Ret.Bits)
	}
	h := mustParse(t, `define i8 @h(i64 noundef %0) {
  %2 = trunc i64 %0 to i8
  ret i8 %2
}
`)
	if out := run1(t, h, V(0x1234)); out.Ret.Bits != 0x34 {
		t.Errorf("trunc = %x", out.Ret.Bits)
	}
}

// Property: icmp predicates and their inverses always disagree on
// non-poison inputs.
func TestICmpInverseProperty(t *testing.T) {
	check := func(a, b uint64, predRaw uint8) bool {
		p := ir.Pred(predRaw % 10)
		it := ir.I32
		return icmp(p, a, b, it) != icmp(p.Inverse(), a, b, it)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: swapped predicates agree with swapped operands.
func TestICmpSwapProperty(t *testing.T) {
	check := func(a, b uint64, predRaw uint8) bool {
		p := ir.Pred(predRaw % 10)
		it := ir.I16
		return icmp(p, a, b, it) == icmp(p.Swapped(), b, a, it)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: nsw/nuw flags never change the computed bits when no
// poison results; they only introduce poison.
func TestFlagsOnlyAddPoison(t *testing.T) {
	ops := []string{"add", "sub", "mul", "shl"}
	for _, opName := range ops {
		plain := mustParse(t, `define i16 @f(i16 noundef %0, i16 noundef %1) {
  %2 = `+opName+` i16 %0, %1
  ret i16 %2
}
`)
		flagged := mustParse(t, `define i16 @f(i16 noundef %0, i16 noundef %1) {
  %2 = `+opName+` nuw nsw i16 %0, %1
  ret i16 %2
}
`)
		check := func(a, b uint16) bool {
			o1, err1 := Run(plain, []Val{V(uint64(a)), V(uint64(b))}, DefaultConfig())
			o2, err2 := Run(flagged, []Val{V(uint64(a)), V(uint64(b))}, DefaultConfig())
			if err1 != nil || err2 != nil {
				return false
			}
			if o2.Ret.Poison || o1.Ret.Poison {
				return true // flagged may be poison; nothing to compare
			}
			return o1.Ret.Bits == o2.Ret.Bits
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", opName, err)
		}
	}
}

// Property (differential): signed overflow helpers agree with wide
// arithmetic on i32.
func TestOverflowHelpersAgainstWideArith(t *testing.T) {
	it := ir.I32
	check := func(a, b uint32) bool {
		sa, sb := int64(int32(a)), int64(int32(b))
		wantAdd := sa+sb < -2147483648 || sa+sb > 2147483647
		wantSub := sa-sb < -2147483648 || sa-sb > 2147483647
		wantMul := sa*sb < -2147483648 || sa*sb > 2147483647
		return signedAddOverflows(uint64(a), uint64(b), it) == wantAdd &&
			signedSubOverflows(uint64(a), uint64(b), it) == wantSub &&
			signedMulOverflows(uint64(a), uint64(b), it) == wantMul
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSwitchDispatch(t *testing.T) {
	f := mustParse(t, `define i32 @sw(i32 noundef %0) {
entry:
  switch i32 %0, label %def [ i32 0, label %a i32 7, label %b ]

a:
  ret i32 100

b:
  ret i32 200

def:
  ret i32 -1
}
`)
	cases := map[uint64]uint64{0: 100, 7: 200, 3: 0xFFFFFFFF, 100: 0xFFFFFFFF}
	for in, want := range cases {
		out := run1(t, f, V(in))
		if out.Ret.Bits != want {
			t.Errorf("sw(%d) = %d, want %d", in, out.Ret.Bits, int32(want))
		}
	}
}

func TestSwitchOnPoisonIsUB(t *testing.T) {
	f := mustParse(t, `define i32 @sw(i8 noundef %0) {
entry:
  %1 = add nsw i8 %0, 1
  %2 = zext i8 %1 to i32
  switch i32 %2, label %def [ i32 0, label %a ]

a:
  ret i32 1

def:
  ret i32 0
}
`)
	if out := run1(t, f, V(127)); !out.UB {
		t.Error("switch on poison: want UB")
	}
}
