package alive

import (
	"strings"
	"testing"
	"unsafe"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
)

func verify(t *testing.T, src, tgt string) Result {
	t.Helper()
	res, err := VerifyText(src, tgt, DefaultOptions())
	if err != nil {
		t.Fatalf("VerifyText: %v", err)
	}
	return res
}

func wantVerdict(t *testing.T, res Result, want Verdict) {
	t.Helper()
	if res.Verdict != want {
		t.Fatalf("verdict = %v, want %v\ndiag: %s", res.Verdict, want, res.Diag)
	}
}

func TestIdentityIsEquivalent(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 1
  ret i32 %2
}
`
	wantVerdict(t, verify(t, src, src), Equivalent)
}

func TestSoundPeepholeAccepted(t *testing.T) {
	cases := []struct{ name, src, tgt string }{
		{"add-zero", `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 0
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`},
		{"xor-self", `define i32 @f(i32 noundef %0) {
  %2 = xor i32 %0, %0
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  ret i32 0
}
`},
		{"mul2-to-shl", `define i32 @f(i32 noundef %0) {
  %2 = mul i32 %0, 2
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  %2 = shl i32 %0, 1
  ret i32 %2
}
`},
		{"double-neg", `define i32 @f(i32 noundef %0) {
  %2 = sub i32 0, %0
  %3 = sub i32 0, %2
  ret i32 %3
}
`, `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`},
		{"and-demorgan", `define i8 @f(i8 noundef %0, i8 noundef %1) {
  %3 = and i8 %0, %1
  %4 = xor i8 %3, -1
  ret i8 %4
}
`, `define i8 @f(i8 noundef %0, i8 noundef %1) {
  %3 = xor i8 %0, -1
  %4 = xor i8 %1, -1
  %5 = or i8 %3, %4
  ret i8 %5
}
`},
		{"drop-nsw", `define i32 @f(i32 noundef %0) {
  %2 = add nsw i32 %0, 1
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 1
  ret i32 %2
}
`},
		{"select-to-icmp-identity", `define i32 @f(i32 noundef %0) {
  %2 = icmp slt i32 %0, 0
  %3 = select i1 %2, i32 %0, i32 %0
  ret i32 %3
}
`, `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`},
		{"store-forward", `define i32 @f(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = load i32, ptr %2
  %4 = add i32 %3, 5
  ret i32 %4
}
`, `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 5
  ret i32 %2
}
`},
		{"sdiv-pow2-to-ashr-with-bias", `define i32 @f(i32 noundef %0) {
  %2 = sdiv i32 %0, 2
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  %2 = lshr i32 %0, 31
  %3 = add i32 %0, %2
  %4 = ashr i32 %3, 1
  ret i32 %4
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantVerdict(t, verify(t, tc.src, tc.tgt), Equivalent)
		})
	}
}

func TestUnsoundRewritesRejected(t *testing.T) {
	cases := []struct{ name, src, tgt, diagHint string }{
		// Adding nsw is not sound: target is more poisonous.
		{"introduce-nsw", `define i8 @f(i8 noundef %0) {
  %2 = add i8 %0, 1
  ret i8 %2
}
`, `define i8 @f(i8 noundef %0) {
  %2 = add nsw i8 %0, 1
  ret i8 %2
}
`, "more poisonous"},
		// Plain wrong arithmetic.
		{"wrong-constant", `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 2
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 3
  ret i32 %2
}
`, "Value mismatch"},
		// x+1 > x is false on overflow: folding the compare to true is wrong.
		{"overflow-ignorant-cmp", `define i1 @f(i32 noundef %0) {
  %2 = add i32 %0, 1
  %3 = icmp sgt i32 %2, %0
  ret i1 %3
}
`, `define i1 @f(i32 noundef %0) {
  ret i1 true
}
`, "Value mismatch"},
		// Signed vs unsigned division differ on negatives.
		{"sdiv-as-lshr", `define i32 @f(i32 noundef %0) {
  %2 = sdiv i32 %0, 4
  ret i32 %2
}
`, `define i32 @f(i32 noundef %0) {
  %2 = lshr i32 %0, 2
  ret i32 %2
}
`, "Value mismatch"},
		// Introducing a division introduces UB on zero.
		{"introduce-div-ub", `define i32 @f(i32 noundef %0, i32 noundef %1) {
  ret i32 %0
}
`, `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = sdiv i32 %0, %1
  %4 = mul i32 %3, %1
  %5 = srem i32 %0, %1
  %6 = add i32 %4, %5
  ret i32 %6
}
`, "undefined behavior"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := verify(t, tc.src, tc.tgt)
			wantVerdict(t, res, SemanticError)
			if !strings.Contains(res.Diag, tc.diagHint) {
				t.Errorf("diag %q does not contain %q", res.Diag, tc.diagHint)
			}
			if len(res.Counterexample) == 0 {
				t.Error("semantic error without counterexample")
			}
		})
	}
}

func TestSyntaxErrorVerdict(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`
	res := verify(t, src, "definitely not IR")
	wantVerdict(t, res, SyntaxError)
	if !strings.Contains(res.Diag, "ERROR") {
		t.Errorf("diag = %q", res.Diag)
	}
	// Structurally invalid (bad phi) also counts as syntax error.
	bad := `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, %3
  %3 = add i32 %0, 1
  ret i32 %2
}
`
	res = verify(t, src, bad)
	wantVerdict(t, res, SyntaxError)
}

func TestControlFlowEquivalence(t *testing.T) {
	src := `define i32 @max(i32 noundef %0, i32 noundef %1) {
entry:
  %2 = icmp sgt i32 %0, %1
  br i1 %2, label %a, label %b

a:
  br label %end

b:
  br label %end

end:
  %3 = phi i32 [ %0, %a ], [ %1, %b ]
  ret i32 %3
}
`
	tgt := `define i32 @max(i32 noundef %0, i32 noundef %1) {
  %3 = icmp sgt i32 %0, %1
  %4 = select i1 %3, i32 %0, i32 %1
  ret i32 %4
}
`
	wantVerdict(t, verify(t, src, tgt), Equivalent)

	// Swapping the arms is wrong (min, not max).
	bad := `define i32 @max(i32 noundef %0, i32 noundef %1) {
  %3 = icmp sgt i32 %0, %1
  %4 = select i1 %3, i32 %1, i32 %0
  ret i32 %4
}
`
	res := verify(t, src, bad)
	wantVerdict(t, res, SemanticError)
}

func TestPaperFig8StructReturn(t *testing.T) {
	// Figure 8 of the paper: storing two zero halves and loading the
	// whole is just 0 — here modeled with a single i64 cell.
	src := `define i64 @get_d() {
  %1 = alloca i64
  store i64 0, ptr %1
  %2 = load i64, ptr %1
  ret i64 %2
}
`
	tgt := `define i64 @get_d() {
  ret i64 0
}
`
	wantVerdict(t, verify(t, src, tgt), Equivalent)
}

func TestPaperFig9AllocaRemoval(t *testing.T) {
	// Figure 9 shape: conditional call, alloca round-trip removed.
	src := `declare void @foo(i32)

define i64 @f28(i64 noundef %0, i64 noundef %1) {
entry:
  %3 = alloca i64
  %4 = add i64 %0, %1
  store i64 %4, ptr %3
  %5 = icmp ugt i64 %4, %0
  br i1 %5, label %cont, label %call

call:
  call void @foo(i32 0)
  br label %cont

cont:
  %7 = load i64, ptr %3
  ret i64 %7
}
`
	tgt := `declare void @foo(i32)

define i64 @f28(i64 noundef %0, i64 noundef %1) {
entry:
  %3 = add i64 %0, %1
  %4 = icmp ugt i64 %3, %0
  br i1 %4, label %cont, label %call

call:
  call void @foo(i32 0)
  br label %cont

cont:
  ret i64 %3
}
`
	sf, tf := mustFn(t, src), mustFn(t, tgt)
	res := VerifyFuncs(sf, tf, DefaultOptions())
	wantVerdict(t, res, Equivalent)
}

func TestCallTraceMismatchRejected(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = call i32 @g(i32 %0)
  ret i32 %2
}
`
	// Dropping the call is not a valid transformation.
	tgt := `define i32 @f(i32 noundef %0) {
  ret i32 0
}
`
	sf, tf := mustFn(t, src), mustFn(t, tgt)
	res := VerifyFuncs(sf, tf, DefaultOptions())
	wantVerdict(t, res, SemanticError)
	if !strings.Contains(res.Diag, "@g") {
		t.Errorf("diag should mention the dropped call: %q", res.Diag)
	}

	// Changing the argument is also wrong.
	tgt2 := `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 1
  %3 = call i32 @g(i32 %2)
  ret i32 %3
}
`
	res = VerifyFuncs(sf, mustFn(t, tgt2), DefaultOptions())
	wantVerdict(t, res, SemanticError)
}

func TestCallPreservedAccepted(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  %2 = call i32 @g(i32 %0)
  %3 = add i32 %2, 0
  ret i32 %3
}
`
	tgt := `define i32 @f(i32 noundef %0) {
  %2 = call i32 @g(i32 %0)
  ret i32 %2
}
`
	sf, tf := mustFn(t, src), mustFn(t, tgt)
	res := VerifyFuncs(sf, tf, DefaultOptions())
	wantVerdict(t, res, Equivalent)
}

func TestLoopBoundedValidation(t *testing.T) {
	// A loop with a statically bounded trip count validates fine.
	src := `define i32 @f(i32 noundef %0) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %acc = phi i32 [ %0, %entry ], [ %accn, %loop ]
  %accn = add i32 %acc, 1
  %in = add i32 %i, 1
  %c = icmp ult i32 %in, 3
  br i1 %c, label %loop, label %done

done:
  ret i32 %accn
}
`
	tgt := `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 3
  ret i32 %2
}
`
	wantVerdict(t, verify(t, src, tgt), Equivalent)
}

func TestUnboundedLoopInconclusive(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %in = add i32 %i, 1
  %c = icmp ult i32 %in, %0
  br i1 %c, label %loop, label %done

done:
  ret i32 %in
}
`
	tgt := `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`
	res, err := VerifyText(src, tgt, Options{MaxPaths: 16, MaxSteps: 64, SolverBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, res, Inconclusive)
}

func TestTruncZextPatterns(t *testing.T) {
	src := `define i32 @f(i64 noundef %0) {
  %2 = lshr i64 %0, 61
  %3 = trunc i64 %2 to i32
  %4 = add i32 %3, 1
  ret i32 %4
}
`
	// Paper fig. 11: instcombine adds nuw nsw because the value fits.
	tgt := `define i32 @f(i64 noundef %0) {
  %2 = lshr i64 %0, 61
  %3 = trunc i64 %2 to i32
  %4 = add nuw nsw i32 %3, 1
  ret i32 %4
}
`
	wantVerdict(t, verify(t, src, tgt), Equivalent)
}

func TestCounterexampleIsConcrete(t *testing.T) {
	src := `define i8 @f(i8 noundef %0) {
  %2 = mul i8 %0, 2
  ret i8 %2
}
`
	tgt := `define i8 @f(i8 noundef %0) {
  %2 = mul i8 %0, 3
  ret i8 %2
}
`
	res := verify(t, src, tgt)
	wantVerdict(t, res, SemanticError)
	x := res.Counterexample["0"]
	if (2*x)&0xFF == (3*x)&0xFF {
		t.Errorf("counterexample x=%d does not distinguish the functions", x)
	}
	if !strings.Contains(res.Diag, "Example:") {
		t.Errorf("diagnostic missing example section:\n%s", res.Diag)
	}
}

// TestResultDoesNotAliasInput: a Result is memoized for as long as the
// cache keeps it, and the parser's names are substrings of the text it
// read. A counterexample keyed by those substrings kept every cached
// SemanticError's whole request body reachable.
func TestResultDoesNotAliasInput(t *testing.T) {
	// Clone: the texts must be heap buffers of known extent, not
	// constants the linker may have merged with anything.
	src := strings.Clone(`define i8 @f(i8 noundef %lhs, i8 noundef %rhs) {
  %sum = add i8 %lhs, %rhs
  ret i8 %sum
}
`)
	tgt := strings.Clone(`define i8 @f(i8 noundef %lhs, i8 noundef %rhs) {
  %sum = sub i8 %lhs, %rhs
  ret i8 %sum
}
`)
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, in := range []string{src, tgt} {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(in)))
			if len(s) > 0 && p < lo+uintptr(len(in)) && lo < p+uintptr(len(s)) {
				return true
			}
		}
		return false
	}
	res := verify(t, src, tgt)
	wantVerdict(t, res, SemanticError)
	if _, ok := res.Counterexample["rhs"]; !ok || len(res.Counterexample) != 2 {
		t.Fatalf("counterexample = %v, want values for lhs and rhs", res.Counterexample)
	}
	for name := range res.Counterexample {
		if inside(name) {
			t.Errorf("counterexample key %q is a substring of the input text", name)
		}
	}
	if inside(res.Diag) {
		t.Errorf("diagnostic points into the input text:\n%s", res.Diag)
	}
	tgt = strings.Clone("define i8 @f(i8 noundef %lhs, i8 noundef %rhs) {\n  ret i8 %nowhere\n}\n")
	res = verify(t, src, tgt)
	wantVerdict(t, res, SyntaxError)
	if inside(res.Diag) {
		t.Errorf("syntax diagnostic points into the input text:\n%s", res.Diag)
	}
}

func TestVoidFunctions(t *testing.T) {
	src := `define void @f(i32 noundef %0) {
  call void @sink(i32 %0)
  ret void
}
`
	wantVerdict(t, verify(t, src, src), Equivalent)
	tgt := `define void @f(i32 noundef %0) {
  ret void
}
`
	res := verify(t, src, tgt)
	wantVerdict(t, res, SemanticError)
}

func TestSignatureMismatch(t *testing.T) {
	src := `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`
	tgt := `define i64 @f(i64 noundef %0) {
  ret i64 %0
}
`
	res := verify(t, src, tgt)
	wantVerdict(t, res, SemanticError)
	if !strings.Contains(res.Diag, "signature") {
		t.Errorf("diag = %q", res.Diag)
	}
}

// mustFn parses a module that may include declarations and returns
// its single defined function.
func mustFn(t *testing.T, src string) *ir.Function {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(m.Funcs) != 1 {
		t.Fatalf("want 1 function, got %d", len(m.Funcs))
	}
	if err := ir.VerifyFunc(m.Funcs[0]); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m.Funcs[0]
}

func TestSwitchEquivalence(t *testing.T) {
	src := `define i32 @sw(i32 noundef %0) {
entry:
  %1 = and i32 %0, 3
  switch i32 %1, label %def [ i32 0, label %a i32 1, label %b ]

a:
  ret i32 10

b:
  ret i32 20

def:
  ret i32 30
}
`
	// An equivalent icmp chain.
	tgt := `define i32 @sw(i32 noundef %0) {
entry:
  %1 = and i32 %0, 3
  %2 = icmp eq i32 %1, 0
  br i1 %2, label %a, label %t1

t1:
  %3 = icmp eq i32 %1, 1
  br i1 %3, label %b, label %def

a:
  ret i32 10

b:
  ret i32 20

def:
  ret i32 30
}
`
	wantVerdict(t, verify(t, src, tgt), Equivalent)

	// Swapping two case results is caught.
	bad := strings.Replace(tgt, "ret i32 10", "ret i32 20", 1)
	bad = strings.Replace(bad, "\n\nb:\n  ret i32 20", "\n\nb:\n  ret i32 10", 1)
	res := verify(t, src, bad)
	wantVerdict(t, res, SemanticError)
}

func TestSwitchDefaultOnlyPath(t *testing.T) {
	// Cases outside the masked range are dead; only the default runs.
	src := `define i32 @sw(i32 noundef %0) {
entry:
  %1 = and i32 %0, 1
  switch i32 %1, label %def [ i32 9, label %a ]

a:
  ret i32 111

def:
  ret i32 5
}
`
	tgt := `define i32 @sw(i32 noundef %0) {
  ret i32 5
}
`
	wantVerdict(t, verify(t, src, tgt), Equivalent)
}

// TestParseVerdictInvertsString: the wire names round-trip through the
// one name table, and nothing else is a verdict.
func TestParseVerdictInvertsString(t *testing.T) {
	for v := Equivalent; v <= Inconclusive; v++ {
		if got, ok := ParseVerdict(v.String()); !ok || got != v {
			t.Errorf("ParseVerdict(%q) = %v, %v", v.String(), got, ok)
		}
	}
	for _, name := range []string{"", "Equivalent", "canceled"} {
		if v, ok := ParseVerdict(name); ok {
			t.Errorf("ParseVerdict(%q) = %v, want not ok", name, v)
		}
	}
}

// TestCandidateGate pins the one SyntaxError gate: which prefix each
// failure carries, and that a well-formed candidate comes back as is.
func TestCandidateGate(t *testing.T) {
	if f, res := Candidate(ir.ParseFunc("definitely not IR")); f != nil ||
		res.Verdict != SyntaxError || !strings.HasPrefix(res.Diag, DiagParsePrefix) {
		t.Errorf("unparsable candidate: f=%v res=%+v", f, res)
	}
	// Parses, but uses %3 before its definition.
	if f, res := Candidate(ir.ParseFunc(`define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, %3
  %3 = add i32 %0, 1
  ret i32 %2
}
`)); f != nil || res.Verdict != SyntaxError || !strings.HasPrefix(res.Diag, diagInvalidPrefix) {
		t.Errorf("invalid candidate: f=%v res=%+v", f, res)
	}
	good, err := ir.ParseFunc("define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if f, res := Candidate(good, nil); f != good || res.Diag != "" {
		t.Errorf("well-formed candidate: f=%v res=%+v", f, res)
	}
}

var cloneSink *pathState

// TestPathStateCloneAllocs pins what forking a path state allocates:
// nothing, amortized, however many values and cells it holds. The state
// and its slots are carved from the executor's chunks, which double. The
// state and one copy of its slots were the price while a fork cloned
// them with slices.Clone, and two maps.Clone calls more, a header and
// buckets each, while it kept them in maps keyed by instruction.
func TestPathStateCloneAllocs(t *testing.T) {
	b := bv.NewBuilder()
	ex := new(executor)
	ex.states, ex.slab = ex.stateBuf[:0], ex.slotBuf[:0]
	ps := ex.state(40)
	ps.cond = b.True()
	for i := range ps.slots {
		ps.slots[i].val = symVal{val: b.Const(32, uint64(i)), poison: b.False()}
		if i%4 == 0 {
			ps.slots[i].cell = ps.slots[i].val
		}
	}
	if got := testing.AllocsPerRun(100, func() { cloneSink = ex.clone(ps) }); got != 0 {
		t.Errorf("executor.clone: %.0f allocations, want 0", got)
	}
	if cloneSink.cond != ps.cond || cloneSink.slots[8] != ps.slots[8] || &cloneSink.slots[0] == &ps.slots[0] {
		t.Error("executor.clone is not a copy of its own")
	}
}
