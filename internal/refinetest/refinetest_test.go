package refinetest

import (
	"strings"
	"testing"

	"veriopt/internal/interp"
	"veriopt/internal/ir"
)

// fn parses one function of i8 noundef parameters, or of the signature
// sig when it is not empty.
func fn(t *testing.T, sig, body string) *ir.Function {
	t.Helper()
	if sig == "" {
		sig = "i8 @f(i8 noundef %0)"
	}
	f, err := ir.ParseFunc("define " + sig + " {\n" + body + "}\n")
	if err != nil || ir.VerifyFunc(f) != nil {
		t.Fatalf("%v, %v\n%s", err, ir.VerifyFunc(f), body)
	}
	return f
}

// TestViolationClauses: one row per clause of refinement, each on one
// input.
func TestViolationClauses(t *testing.T) {
	const (
		id       = "  ret i8 %0\n"
		divUB    = "  %2 = udiv i8 1, %0\n  ret i8 %2\n"    // UB at 0
		nswPoi   = "  %2 = add nsw i8 %0, 1\n  ret i8 %2\n" // poison at 127
		obs      = "  %2 = call i8 @obs(i8 %0)\n  ret i8 0\n"
		obsPoi   = "  %2 = add nsw i8 %0, 1\n  %3 = call i8 @obs(i8 %2)\n  ret i8 0\n"
		obsOther = "  %2 = call i8 @other(i8 %0)\n  ret i8 0\n"
		obsTwice = "  %2 = call i8 @obs(i8 %0)\n  %3 = call i8 @obs(i8 %0)\n  ret i8 0\n"
		obsNext  = "  %2 = add i8 %0, 1\n  %3 = call i8 @obs(i8 %2)\n  ret i8 0\n"
		obsWide  = "  %2 = zext i8 %0 to i9\n  %3 = call i8 @obs(i9 %2)\n  ret i8 0\n"
	)
	for _, tc := range []struct {
		name     string
		src, tgt string
		arg      uint64
		want     string
	}{
		{"refines", id, "  %2 = add i8 %0, 0\n  ret i8 %2\n", 5, ""},
		{"source UB admits anything", divUB, "  ret i8 7\n", 0, ""},
		{"source UB admits target UB", divUB, divUB, 0, ""},
		{"target UB", id, divUB, 0, "target UB"},
		{"source poison admits any return", nswPoi, "  ret i8 7\n", 127, ""},
		{"target poison", "  ret i8 -128\n", nswPoi, 127, "target poison"},
		{"poison call argument, target", obs, obsPoi, 127, "poison call argument"},
		{"poison call argument, source", obsPoi, obsPoi, 127, "poison call argument"},
		{"callee mismatch", obs, obsOther, 3, "callee"},
		{"call count", obs, obsTwice, 3, "call count"},
		{"call argument", obs, obsNext, 3, "call argument"},
		{"call argument type", obs, obsWide, 3, "call argument type"},
		{"value mismatch", id, "  ret i8 4\n", 3, "value"},
	} {
		src, tgt := fn(t, "", tc.src), fn(t, "", tc.tgt)
		r, err := Run(src, tgt, []interp.Val{interp.V(tc.arg)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.Violation(); got != tc.want {
			t.Errorf("%s: violation %q, want %q", tc.name, got, tc.want)
		}
		differs, err := differs(src, tgt, []interp.Val{interp.V(tc.arg)})
		if err != nil || differs != (tc.want != "") {
			t.Errorf("%s: differs %v, %v", tc.name, differs, err)
		}
		if w := Witness(t, src, tgt, map[string]uint64{"0": tc.arg}); w != differs {
			t.Errorf("%s: Witness %v, differs %v", tc.name, w, differs)
		}
	}
	// A source that returns poison still has its calls compared.
	src := fn(t, "", "  %2 = call i8 @obs(i8 %0)\n  %3 = add nsw i8 %0, 1\n  ret i8 %3\n")
	if r, err := Run(src, fn(t, "", "  ret i8 0\n"), []interp.Val{interp.V(127)}); err != nil || r.Violation() != "call count" {
		t.Errorf("a poison-returning source's call dropped: %q, %v", r.Violation(), err)
	}
}

// TestExhaustive: what the exhaustive decider decides, and each reason
// it declines.
func TestExhaustive(t *testing.T) {
	two := "i8 @f(i8 noundef %0, i8 noundef %1)"
	for _, tc := range []struct {
		name     string
		src, tgt *ir.Function
		refines  bool
		declined string // a word of the error
	}{
		{"refines", fn(t, "", "  %2 = mul i8 %0, 2\n  ret i8 %2\n"), fn(t, "", "  %2 = shl i8 %0, 1\n  ret i8 %2\n"), true, ""},
		{"refuted", fn(t, two, "  %3 = add i8 %0, %1\n  ret i8 %3\n"),
			fn(t, two, "  %3 = add i8 %0, %1\n  %4 = icmp eq i8 %3, -7\n  %5 = select i1 %4, i8 0, i8 %3\n  ret i8 %5\n"), false, ""},
		{"source UB admits the target's", fn(t, "", "  %2 = sdiv i8 %0, 0\n  ret i8 %2\n"), fn(t, "", "  ret i8 1\n"), true, ""},
		{"not noundef", fn(t, "i8 @f(i8 %0)", "  ret i8 %0\n"), fn(t, "i8 @f(i8 %0)", "  ret i8 %0\n"), false, "noundef"},
		{"target not noundef", fn(t, "", "  ret i8 %0\n"), fn(t, "i8 @f(i8 %0)", "  ret i8 %0\n"), false, "noundef"},
		{"17 bits", fn(t, "i8 @f(i16 noundef %0, i1 noundef %1)", "  %3 = trunc i16 %0 to i8\n  ret i8 %3\n"),
			fn(t, "i8 @f(i16 noundef %0, i1 noundef %1)", "  %3 = trunc i16 %0 to i8\n  ret i8 %3\n"), false, "17 parameter bits"},
		{"a call's result", fn(t, "", "  ret i8 %0\n"), fn(t, "", "  %2 = call i8 @obs(i8 %0)\n  ret i8 %2\n"), false, "call's result"},
		{"a call, its result unread", fn(t, "", "  ret i8 %0\n"), fn(t, "", "  %2 = call i8 @obs(i8 %0)\n  ret i8 %0\n"), false, ""},
		{"parameter types", fn(t, "", "  ret i8 %0\n"), fn(t, "i8 @f(i16 noundef %0)", "  %2 = trunc i16 %0 to i8\n  ret i8 %2\n"), false, "signatures"},
		{"return types", fn(t, "", "  ret i8 %0\n"), fn(t, "i16 @f(i8 noundef %0)", "  %2 = zext i8 %0 to i16\n  ret i16 %2\n"), false, "signatures"},
		{"parameter counts", fn(t, "", "  ret i8 %0\n"), fn(t, two, "  ret i8 %0\n"), false, "signatures"},
	} {
		refines, err := Exhaustive(tc.src, tc.tgt)
		switch {
		case tc.declined == "" && err != nil:
			t.Errorf("%s: declined: %v", tc.name, err)
		case tc.declined != "" && (err == nil || !strings.Contains(err.Error(), tc.declined)):
			t.Errorf("%s: %v, want it declined for %q", tc.name, err, tc.declined)
		case refines != tc.refines:
			t.Errorf("%s: refines=%v", tc.name, refines)
		}
	}
}

// TestCallArgumentTypeRefutes: a call passing i32 0 in the source and
// i36 0 in the target observes equal bits, and alive rejects it ("has
// a different type"); the reference must refute it too, on the
// counterexample's input and on every input. FuzzMergedVsForking found
// the pair on a corpus function (cond_call_13, its call's constant
// retyped); this is its narrow form.
func TestCallArgumentTypeRefutes(t *testing.T) {
	src := fn(t, "", "  call void @foo(i32 0)\n  ret i8 %0\n")
	tgt := fn(t, "", "  call void @foo(i36 0)\n  ret i8 %0\n")
	r, err := Run(src, tgt, []interp.Val{interp.V(0)})
	if err != nil || r.Violation() != "call argument type" {
		t.Fatalf("violation %q, %v; want %q", r.Violation(), err, "call argument type")
	}
	if !Witness(t, src, tgt, map[string]uint64{}) {
		t.Error("Witness does not refute a call whose argument changed type")
	}
	if refines, err := Exhaustive(src, tgt); err != nil || refines {
		t.Errorf("Exhaustive: refines=%v, %v; want refuted", refines, err)
	}
}

// TestFalsifyAgreesWithExhaustive: on a narrow pair each decider can
// decide, the sampler finds what enumeration finds, and finds nothing
// where enumeration finds nothing. The sign bit is the corner value that
// refutes the shift form of a division by -128.
func TestFalsifyAgreesWithExhaustive(t *testing.T) {
	src := fn(t, "", "  %2 = sdiv i8 %0, -128\n  ret i8 %2\n")
	for _, tc := range []struct {
		name    string
		tgt     *ir.Function
		refines bool
	}{
		{"biased shift", fn(t, "", "  %2 = ashr i8 %0, 7\n  %3 = lshr i8 %2, 1\n  %4 = add i8 %0, %3\n  %5 = ashr i8 %4, 7\n  ret i8 %5\n"), false},
		{"compare", fn(t, "", "  %2 = icmp eq i8 %0, -128\n  %3 = zext i1 %2 to i8\n  ret i8 %3\n"), true},
	} {
		refines, err := Exhaustive(src, tc.tgt)
		if err != nil || refines != tc.refines {
			t.Fatalf("%s: refines=%v, %v", tc.name, refines, err)
		}
		in, err := Falsify(src, tc.tgt, 1, 300)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if refines != (in == nil) {
			t.Errorf("%s: exhaustive says refines=%v, the sampler found %v", tc.name, refines, in)
		}
		if in != nil {
			if differs, _ := differs(src, tc.tgt, in); !differs {
				t.Errorf("%s: the sampler's %v does not distinguish", tc.name, in)
			}
		}
	}
	// The same seed draws the same inputs.
	tgt := fn(t, "", "  ret i8 0\n")
	a, _ := Falsify(src, tgt, 9, 50)
	b, _ := Falsify(src, tgt, 9, 50)
	if a == nil || a[0] != b[0] {
		t.Errorf("seed 9: %v, then %v", a, b)
	}
}

// TestUsesCallResult: reading a call's result, through an operand or an
// incoming phi value, is what makes a parameter-only witness
// insufficient.
func TestUsesCallResult(t *testing.T) {
	for _, tc := range []struct {
		body string
		uses bool
	}{
		{"  %2 = call i8 @obs(i8 %0)\n  ret i8 %0\n", false},
		{"  %2 = call i8 @obs(i8 %0)\n  ret i8 %2\n", true},
		{"  %2 = call i8 @obs(i8 %0)\n  %3 = add nuw i8 %2, %2\n  ret i8 %0\n", true},
		{"entry:\n  %2 = call i8 @obs(i8 %0)\n  br label %j\nj:\n  %3 = phi i8 [ %2, %entry ]\n  ret i8 %3\n", true},
	} {
		if got := UsesCallResult(fn(t, "", tc.body)); got != tc.uses {
			t.Errorf("%s: %v, want %v", tc.body, got, tc.uses)
		}
	}
}
