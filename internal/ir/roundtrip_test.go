package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

const sampleFn = `define i32 @f(i32 noundef %0, i32 noundef %1) #0 {
  %2 = add nsw i32 %0, %1
  %3 = icmp sgt i32 %2, 0
  %4 = select i1 %3, i32 %2, i32 0
  ret i32 %4
}
`

func TestParsePrintRoundTrip(t *testing.T) {
	f, err := ParseFunc(sampleFn)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got := FuncString(f)
	if got != sampleFn {
		t.Errorf("round trip mismatch:\n got: %q\nwant: %q", got, sampleFn)
	}
	if err := VerifyFunc(f); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestParseMultiBlock(t *testing.T) {
	src := `define i32 @g(i32 noundef %0) {
entry:
  %1 = icmp eq i32 %0, 0
  br i1 %1, label %then, label %else

then:
  br label %end

else:
  %2 = mul i32 %0, 3
  br label %end

end:
  %3 = phi i32 [ 7, %then ], [ %2, %else ]
  ret i32 %3
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got := FuncString(f)
	if got != src {
		t.Errorf("round trip mismatch:\n got:\n%s\nwant:\n%s", got, src)
	}
	if len(f.Blocks) != 4 {
		t.Errorf("got %d blocks, want 4", len(f.Blocks))
	}
}

func TestParseLoop(t *testing.T) {
	src := `define i64 @sum(i64 noundef %0) {
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
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestParseMemoryAndCalls(t *testing.T) {
	src := `declare i32 @ext(i32)

define i32 @h(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  %3 = load i32, ptr %2
  %4 = call i32 @ext(i32 %3)
  ret i32 %4
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(m.Decls) != 1 || m.Decls[0].NameStr != "ext" {
		t.Errorf("decls = %+v", m.Decls)
	}
	got := Print(m)
	if got != src {
		t.Errorf("round trip mismatch:\n got:\n%s\nwant:\n%s", got, src)
	}
}

func TestParseCastsAndFlags(t *testing.T) {
	src := `define i64 @c(i32 noundef %0) {
  %2 = sext i32 %0 to i64
  %3 = add nuw nsw i64 %2, 5
  %4 = lshr exact i64 %3, 1
  %5 = trunc i64 %4 to i16
  %6 = zext i16 %5 to i64
  ret i64 %6
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := FuncString(f); got != src {
		t.Errorf("round trip mismatch:\n got:\n%s\nwant:\n%s", got, src)
	}
	add := f.Blocks[0].Instrs[1]
	if !add.Flags.NSW || !add.Flags.NUW {
		t.Errorf("add flags = %+v, want nuw nsw", add.Flags)
	}
	shr := f.Blocks[0].Instrs[2]
	if !shr.Flags.Exact {
		t.Errorf("lshr flags = %+v, want exact", shr.Flags)
	}
}

// TestParseClangComments: clang annotates a block header with its
// predecessors and may close a body with a comment after the brace;
// both parse, and print as the text without the comments.
func TestParseClangComments(t *testing.T) {
	src := "define i32 @f(i32 noundef %0) {\nentry:\n  %1 = icmp eq i32 %0, 0 ; cmp\n  br i1 %1, label %next, label %out\n\nnext:   ; preds = %entry\n  br label %out\n\nout:                ; preds = %next, %entry\n  %2 = phi i32 [ 1, %next ], [ %0, %entry ]\n  ret i32 %2\n} ; end of @f\n"
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := ParseFunc(strings.NewReplacer("   ; preds = %entry", "", "                ; preds = %next, %entry", "", " ; cmp", "", " ; end of @f", "").Replace(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FuncString(f), FuncString(bare); got != want {
		t.Errorf("commented text prints\n%s\nwant\n%s", got, want)
	}
	if len(f.Blocks) != 3 || f.Blocks[1].NameStr != "next" {
		t.Errorf("blocks %v, want entry, next, out", blockNames(f.Blocks))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"garbage", "hello world", "expected 'define'"},
		{"unknown instr", "define i32 @f(i32 %0) {\n  %1 = frobnicate i32 %0\n  ret i32 %1\n}\n", "unknown instruction"},
		{"undefined value", "define i32 @f(i32 %0) {\n  ret i32 %9\n}\n", "undefined value"},
		{"type mismatch", "define i32 @f(i64 %0) {\n  %1 = add i32 %0, 1\n  ret i32 %1\n}\n", "type"},
		{"bad trunc", "define i32 @f(i32 %0) {\n  %1 = trunc i32 %0 to i64\n  ret i64 %1\n}\n", "not narrower"},
		{"redefinition", "define i32 @f(i32 %0) {\n  %1 = add i32 %0, 1\n  %1 = add i32 %0, 2\n  ret i32 %1\n}\n", "redefinition"},
		{"missing brace", "define i32 @f(i32 %0) {\n  ret i32 %0\n", "unterminated"},
		{"bad predicate", "define i1 @f(i32 %0) {\n  %1 = icmp wat i32 %0, 0\n  ret i1 %1\n}\n", "predicate"},
		{"branch to nowhere", "define i32 @f(i32 %0) {\n  br label %nope\n}\n", "undefined label"},
		{"store with result", "define void @f(i32 %0, ptr %1) {\n  %2 = store i32 %0, ptr %1\n  ret void\n}\n", "store"},
		{"commented label, misspelt branch", "define i32 @f(i32 %0) {\n  br label %nxt\n\nnext:   ; preds = %entry\n  ret i32 %0\n}\n", "branch to undefined label %nxt"},
		{"brace only in a comment", "define i32 @f(i32 %0) {\n  ret i32 %0 ; }\n", "unterminated"},
		{"unclosed declaration", "declare i32 @ext(i32\n", "line 1: declare: expected , or )"},
		{"declaration after a blank line", "\ndeclare i32 ext(i32)\n", "line 2: declare: expected @name"},
		{"forward reference never defined", "define i32 @f(i32 %0) {\n  %1 = add i32 %0, 1\n  ret i32 %9\n}\n", "line 3: use of undefined value %9"},
		{"forward reference of another type", "define i32 @f(i32 %0) {\n  %1 = add i32 %2, 1\n  %2 = zext i32 %0 to i64\n  ret i32 %1\n}\n", "line 2: type mismatch for %2: declared i32, defined i64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestVerifyCatchesBadPhi(t *testing.T) {
	src := `define i32 @g(i32 noundef %0) {
entry:
  %1 = icmp eq i32 %0, 0
  br i1 %1, label %then, label %end

then:
  br label %end

end:
  %3 = phi i32 [ 7, %then ]
  ret i32 %3
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyFunc(f); err == nil {
		t.Error("VerifyFunc accepted phi with missing incoming")
	}
}

func TestVerifyCatchesUseBeforeDef(t *testing.T) {
	f, err := ParseFunc(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the first two instructions so %2 is used before defined.
	b := f.Blocks[0]
	b.Instrs[0], b.Instrs[1] = b.Instrs[1], b.Instrs[0]
	if err := VerifyFunc(f); err == nil {
		t.Error("VerifyFunc accepted use-before-def")
	}
}

func TestCloneIndependence(t *testing.T) {
	f, err := ParseFunc(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	c := CloneFunc(f)
	if FuncString(c) != FuncString(f) {
		t.Fatal("clone prints differently")
	}
	// Mutating the clone must not affect the original.
	c.Blocks[0].Instrs[0].Flags.NSW = false
	if !f.Blocks[0].Instrs[0].Flags.NSW {
		t.Error("mutation of clone leaked into original")
	}
	if err := VerifyFunc(c); err != nil {
		t.Errorf("verify clone: %v", err)
	}
}

// TestCloneSharesForeignValues: operands that are not values of f's own
// — a parameter, an instruction and an alloca of another function, a
// global, an instruction of f that defines no value — stay the same
// objects in the clone, while every parameter and result of f, phi
// incomings through a back edge, a phi's own name and an alloca outside
// the entry block included, is remapped to its copy. Position and
// BlockIndex find each where the reference layout scan does, from the
// use: the incoming defined below it, the alloca outside the entry and
// the foreign values included.
func TestCloneSharesForeignValues(t *testing.T) {
	other, err := ParseFunc(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFunc(`define i32 @g(i32 %n, ptr %q) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]
  %k = phi i32 [ 0, %entry ], [ %k, %loop ]
  %i1 = add i32 %i, %n
  %v = call i32 @h(ptr @glob, ptr %q)
  %c = icmp ult i32 %i1, %v
  %p = alloca i32
  store i32 %i1, ptr %p
  %l = load i32, ptr %p
  br i1 %c, label %loop, label %out
out:
  ret i32 %i1
}`)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := ParseFunc("define void @o() {\n  %a = alloca i32\n  ret void\n}")
	if err != nil {
		t.Fatal(err)
	}
	foreign := []Value{other.Params[1], other.Blocks[0].Instrs[0], slot.Blocks[0].Instrs[0], f.Blocks[0].Instrs[0]} // the last is f's br: no value, so shared
	add := f.Blocks[1].Instrs[2]
	add.Args = append(add.Args, foreign...) // ill-typed on purpose: only identity is under test
	if pc := checkPositions(t, f); pc.Below < 1 || pc.Alloca < 1 || pc.Foreign < len(foreign) {
		t.Errorf("positions compared: %+v; want a definition below its use, an alloca outside the entry and the foreign values", pc)
	}
	c := CloneFunc(f)
	copyOf := map[Value]Value{} // each own value's copy, by position
	for i, p := range f.Params {
		copyOf[p] = c.Params[i]
	}
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			if in.HasResult() {
				copyOf[in] = c.Blocks[bi].Instrs[ii]
			}
		}
	}
	remapped, shared := 0, 0
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			ni := c.Blocks[bi].Instrs[ii]
			ops, nops := append([]Value(nil), in.Args...), append([]Value(nil), ni.Args...)
			for k := range in.Incs {
				ops, nops = append(ops, in.Incs[k].Val), append(nops, ni.Incs[k].Val)
			}
			for k, v := range ops {
				if nv, own := copyOf[v]; own {
					if nops[k] != nv || nv == v {
						t.Errorf("%s: own operand %d not remapped to its copy", FormatInstr(in), k)
					}
					remapped++
				} else {
					if nops[k] != v {
						t.Errorf("%s: foreign operand %d copied, want shared", FormatInstr(in), k)
					}
					shared++
				}
			}
		}
	}
	if _, isGlobal := c.Blocks[1].Instrs[3].Args[0].(*GlobalRef); !isGlobal || remapped < 9 || shared < 5 {
		t.Errorf("%d own and %d foreign operands checked (global seen: %v)", remapped, shared, isGlobal)
	}
	checkClone(t, f, CloneFunc(f))
}

// TestCopierReusesOnlyReleasedMemory: a Copier's next copy leaves the
// last one alone until that is released, and then takes its memory.
func TestCopierReusesOnlyReleasedMemory(t *testing.T) {
	f, err := ParseFunc(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	var c Copier
	a := c.Clone(f)
	text := FuncString(a)
	b := c.Clone(f)
	if a == b || a.Blocks[0] == b.Blocks[0] || a.Blocks[0].Instrs[0] == b.Blocks[0].Instrs[0] {
		t.Fatal("a copy nobody released was reused")
	}
	c.Release()
	if d := c.Clone(f); d != b || d.Blocks[0] != b.Blocks[0] || d.Blocks[0].Instrs[0] != b.Blocks[0].Instrs[0] {
		t.Error("the released copy's memory was not reused")
	}
	if got := FuncString(a); got != text {
		t.Errorf("the first copy changed:\n%s\nwas:\n%s", got, text)
	}
}

// TestCopierParseReusesOnlyReleasedMemory: a Copier's parse follows
// the rule its copies do. It leaves an unreleased function alone and
// takes a released one's memory; a parse that fails hands nothing out
// and leaves free what was free; and copies and parses by one Copier
// reuse each other's memory on the same terms.
func TestCopierParseReusesOnlyReleasedMemory(t *testing.T) {
	parse := func(c *Copier, text string) *Function {
		t.Helper()
		f, err := c.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// same reports whether g is f's memory: its function, first block
	// and first instruction.
	same := func(f, g *Function) bool {
		return f == g && f.Blocks[0] == g.Blocks[0] && f.Blocks[0].Instrs[0] == g.Blocks[0].Instrs[0]
	}
	distinct := func(f, g *Function) bool {
		return f != g && f.Blocks[0] != g.Blocks[0] && f.Blocks[0].Instrs[0] != g.Blocks[0].Instrs[0]
	}
	// broken fails in its last instruction, after the parser has taken
	// the function, its slabs and its chunks.
	broken := strings.Replace(sampleFn, "ret i32", "rte i32", 1)

	t.Run("an unreleased parse is left alone", func(t *testing.T) {
		var c Copier
		a := parse(&c, sampleFn)
		if b := parse(&c, sampleFn); !distinct(a, b) {
			t.Fatal("a parse nobody released was reused")
		}
		if got := FuncString(a); got != sampleFn {
			t.Errorf("the first parse changed:\n%s", got)
		}
	})
	t.Run("a released one's memory is taken", func(t *testing.T) {
		var c Copier
		a := parse(&c, sampleFn)
		c.Release()
		if b := parse(&c, sampleFn); !same(a, b) {
			t.Fatal("the released parse's memory was not reused")
		}
	})
	t.Run("a failed parse hands nothing out and leaves its memory free", func(t *testing.T) {
		var c Copier
		a := parse(&c, sampleFn)
		c.Release()
		if g, err := c.Parse(broken); g != nil || err == nil || !strings.Contains(err.Error(), `unknown instruction "rte"`) {
			t.Fatalf("the broken text parsed to %v, %v", g, err)
		}
		b := parse(&c, sampleFn)
		if !same(a, b) {
			t.Fatal("after a failed parse, the released memory was not reused")
		}
		// Nothing was released since b: a failed parse frees nothing.
		if _, err := c.Parse(broken); err == nil {
			t.Fatal("the broken text parsed")
		}
		if d := parse(&c, sampleFn); !distinct(b, d) {
			t.Fatal("a failed parse freed the memory of a function nobody released")
		}
		if got := FuncString(b); got != sampleFn {
			t.Errorf("the unreleased parse changed:\n%s", got)
		}
	})
	t.Run("a clone and a parse by one Copier follow the same rule", func(t *testing.T) {
		var c, fresh Copier
		f := parse(&fresh, sampleFn)
		a := parse(&c, sampleFn)
		c.Release()
		b := c.Clone(f)
		if !same(a, b) {
			t.Fatal("a clone did not take a released parse's memory")
		}
		d := parse(&c, sampleFn)
		if !distinct(b, d) {
			t.Fatal("a parse took an unreleased clone's memory")
		}
		c.Release()
		if e := parse(&c, sampleFn); !same(d, e) {
			t.Fatal("a parse did not take a released parse's memory after a clone")
		}
		if got := FuncString(b); got != sampleFn {
			t.Errorf("the unreleased clone changed:\n%s", got)
		}
	})
}

// checkClone holds c, a copy of f by CloneFunc or a Copier, to the
// clone CloneFunc replaced (refCloneFunc): the same text and key, and
// every parameter, block, instruction, operand, incoming, successor and
// case of the copy where the reference's is — the copy of f's own
// object at the same position, or f's very object (a constant, a
// global, a value of another function) — with the same lengths and the
// same lists left nil. Then it writes over everything the copy holds
// and requires f to print as before.
func checkClone(t *testing.T, f, c *Function) {
	t.Helper()
	r := refCloneFunc(f)
	if got, want := FuncString(c), FuncString(r); got != want {
		t.Fatalf("CloneFunc prints differently from the reference:\n%s\nreference:\n%s", got, want)
	}
	if got, want := CanonicalKey(c), CanonicalKey(r); got != want {
		t.Fatalf("CloneFunc's key differs from the reference's:\n%q\nreference:\n%q", got, want)
	}
	if got, want := cloneShape(f, c), cloneShape(f, r); !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("@%s: %s, reference %s\n%s", f.NameStr, got[i], want[i], FuncString(f))
			}
		}
		t.Fatalf("@%s: %d shape entries, reference %d", f.NameStr, len(got), len(want))
	}
	before := FuncString(f)
	xBlock, xConst := &Block{NameStr: "X"}, NewConst(I32, 123456789)
	xInstr, xParam := &Instr{Op: OpUnreachable, Ty: Void, Parent: xBlock}, &Param{NameStr: "X", Ty: I32}
	for i, p := range c.Params {
		*p, c.Params[i] = *xParam, xParam
	}
	for i, b := range c.Blocks {
		for j, in := range b.Instrs {
			for k := range in.Args {
				in.Args[k] = xConst
			}
			for k := range in.Succs {
				in.Succs[k] = xBlock
			}
			for k := range in.Incs {
				in.Incs[k] = Incoming{Val: xConst, Block: xBlock}
			}
			for k := range in.Cases {
				in.Cases[k] = xConst
			}
			in.NameStr, b.Instrs[j] = "X", xInstr
		}
		b.NameStr, c.Blocks[i] = "X", xBlock
	}
	if after := FuncString(f); after != before {
		t.Fatalf("writing over the clone changed the original:\n%s\nwas:\n%s", after, before)
	}
}

// cloneShape describes c, a clone of f, one line per object and list
// entry: which of f's objects it copies or shares, and each list's
// length and nil-ness. f and c must print alike.
func cloneShape(f, c *Function) []string {
	own := map[any]string{} // f's parameters, blocks and instructions, by position
	copyAt := map[string]any{}
	for i, p := range f.Params {
		own[p], copyAt[fmt.Sprint("param ", i)] = fmt.Sprint("param ", i), c.Params[i]
	}
	for bi, b := range f.Blocks {
		own[b], copyAt[fmt.Sprint("block ", bi)] = fmt.Sprint("block ", bi), c.Blocks[bi]
		for ii, in := range b.Instrs {
			pos := fmt.Sprintf("instr %d.%d", bi, ii)
			own[in], copyAt[pos] = pos, c.Blocks[bi].Instrs[ii]
		}
	}
	slot := func(x, y any) string {
		if pos, ok := own[x]; ok {
			if y == copyAt[pos] && y != x {
				return "the copy of " + pos
			}
			return "not the copy of " + pos
		}
		if y == x {
			return fmt.Sprintf("shared %T", x)
		}
		return fmt.Sprintf("a %T that is not the original's", y)
	}
	list := func(n int, isNil bool) string { return fmt.Sprintf("%d (nil %v)", n, isNil) }
	out := []string{"params " + list(len(c.Params), c.Params == nil), "blocks " + list(len(c.Blocks), c.Blocks == nil)}
	for i, p := range f.Params {
		out = append(out, fmt.Sprint("param ", i, ": ", slot(p, c.Params[i])))
	}
	for bi, b := range f.Blocks {
		nb := c.Blocks[bi]
		out = append(out, fmt.Sprint("block ", bi, ": ", slot(b, nb), ", parent ", nb.Parent == c, ", instrs ", list(len(nb.Instrs), nb.Instrs == nil)))
		for ii, in := range b.Instrs {
			ni, at := nb.Instrs[ii], fmt.Sprintf("instr %d.%d", bi, ii)
			out = append(out, fmt.Sprint(at, ": ", slot(in, ni), ", parent ", ni.Parent == nb, ", args ", list(len(ni.Args), ni.Args == nil),
				", succs ", list(len(ni.Succs), ni.Succs == nil), ", incs ", list(len(ni.Incs), ni.Incs == nil), ", cases ", list(len(ni.Cases), ni.Cases == nil)))
			for k := range in.Args {
				out = append(out, fmt.Sprint(at, " arg ", k, ": ", slot(in.Args[k], ni.Args[k])))
			}
			for k := range in.Succs {
				out = append(out, fmt.Sprint(at, " succ ", k, ": ", slot(in.Succs[k], ni.Succs[k])))
			}
			for k := range in.Incs {
				out = append(out, fmt.Sprint(at, " inc ", k, ": ", slot(in.Incs[k].Val, ni.Incs[k].Val), " from ", slot(in.Incs[k].Block, ni.Incs[k].Block)))
			}
			for k := range in.Cases {
				out = append(out, fmt.Sprint(at, " case ", k, ": ", slot(in.Cases[k], ni.Cases[k])))
			}
		}
	}
	return out
}

func TestStructurallyEqualModuloNames(t *testing.T) {
	a, err := ParseFunc(sampleFn)
	if err != nil {
		t.Fatal(err)
	}
	renamed := strings.NewReplacer("%2", "%x", "%3", "%y", "%4", "%z").Replace(sampleFn)
	b, err := ParseFunc(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !FuncsStructurallyEqual(a, b) {
		t.Error("renamed function not structurally equal")
	}
	c, err := ParseFunc(strings.Replace(sampleFn, "add nsw", "sub nsw", 1))
	if err != nil {
		t.Fatal(err)
	}
	if FuncsStructurallyEqual(a, c) {
		t.Error("different function reported structurally equal")
	}
}

func TestDominators(t *testing.T) {
	src := `define i32 @g(i32 noundef %0) {
entry:
  %1 = icmp eq i32 %0, 0
  br i1 %1, label %a, label %b

a:
  br label %c

b:
  br label %c

c:
  %2 = phi i32 [ 1, %a ], [ 2, %b ]
  ret i32 %2
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewCFG(f)
	entry, a, b, c := cfg.Index(f.block("entry")), cfg.Index(f.block("a")), cfg.Index(f.block("b")), cfg.Index(f.block("c"))
	if got := int(cfg.idom[c]); got != entry {
		t.Errorf("idom(c) = %v, want entry", f.Blocks[got].NameStr)
	}
	if !cfg.Dominates(entry, c) || cfg.Dominates(a, c) || cfg.Dominates(b, c) {
		t.Error("dominance relation wrong")
	}
}

// TestDeadCodeElim: unused pure instructions go, and what could be
// observed stays — a division that may trap, and every call, a
// readnone callee's too (alive and interp both see each call) — and so
// does a cycle through a phi, one used only by itself or by an earlier
// phi of its own block included.
func TestDeadCodeElim(t *testing.T) {
	cases := []struct {
		name, src string
		removed   int
	}{
		{"dead div by zero stays", `define i32 @f(i32 noundef %0) {
  %2 = add i32 %0, 1
  %3 = mul i32 %2, 2
  %4 = sdiv i32 %0, 0
  ret i32 %0
}
`, 2},
		{"unused readnone call stays", `declare i32 @pure(i32) readnone

define i32 @f(i32 noundef %0) {
  %2 = call i32 @pure(i32 %0)
  %3 = add i32 %0, 1
  ret i32 %0
}
`, 1},
		{"a loop's phi cycles stay", `define i32 @f(i32 noundef %0) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]
  %j = phi i32 [ 0, %entry ], [ %j1, %loop ]
  %k = phi i32 [ 0, %entry ], [ %k, %loop ]
  %i1 = add i32 %i, 1
  %j1 = add i32 %j, 1
  %d = mul i32 %j1, %i1
  %c = icmp ult i32 %i1, %0
  br i1 %c, label %loop, label %out

out:
  ret i32 %0
}
`, 1},
	}
	for _, tc := range cases {
		m, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f := m.Funcs[len(m.Funcs)-1]
		checkDCE(t, f)
		instrs := f.NumInstrs()
		if !HasDeadCode(f) {
			t.Errorf("%s: HasDeadCode is false before DeadCodeElim", tc.name)
		}
		if n := DeadCodeElim(f); n != tc.removed {
			t.Errorf("%s: removed %d instructions, want %d", tc.name, n, tc.removed)
		}
		if got := f.NumInstrs(); got != instrs-tc.removed {
			t.Errorf("%s: %d instructions remain, want %d", tc.name, got, instrs-tc.removed)
		}
		if HasDeadCode(f) {
			t.Errorf("%s: HasDeadCode is true after DeadCodeElim", tc.name)
		}
	}
}

// checkDCE holds DeadCodeElim to the map-based elimination it replaced
// (refDeadCodeElim), each run on its own clone of f: the same count,
// the same printed text and the same survivors — each the very object
// its clone held before, from the same place in layout order — with
// every removed instruction detached and nothing dead left. f itself is
// only cloned.
func checkDCE(t *testing.T, f *Function) {
	t.Helper()
	c, r := CloneFunc(f), CloneFunc(f)
	cBefore, rBefore := layoutOf(c), layoutOf(r)
	if got, want := DeadCodeElim(c), refDeadCodeElim(r); got != want {
		t.Fatalf("@%s: DeadCodeElim removed %d instructions, the reference %d\n%s", f.NameStr, got, want, FuncString(f))
	}
	if got, want := FuncString(c), FuncString(r); got != want {
		t.Fatalf("DeadCodeElim leaves:\n%s\nthe reference:\n%s\nfrom:\n%s", got, want, FuncString(f))
	}
	if got, want := survivors(c, cBefore), survivors(r, rBefore); !slices.Equal(got, want) {
		t.Fatalf("@%s: survivors by former position %v, the reference's %v\n%s", f.NameStr, got, want, FuncString(f))
	}
	for in := range cBefore {
		if in.Parent != nil && !slices.Contains(in.Parent.Instrs, in) {
			t.Fatalf("@%s: removed %s still names its block", f.NameStr, FormatInstr(in))
		}
	}
	if HasDeadCode(c) {
		t.Fatalf("@%s: HasDeadCode is true after DeadCodeElim:\n%s", f.NameStr, FuncString(c))
	}
}

// layoutOf maps each instruction of f to its position in layout order.
func layoutOf(f *Function) map[*Instr]int {
	pos := map[*Instr]int{}
	f.ForEachInstr(func(_ *Block, in *Instr) { pos[in] = len(pos) })
	return pos
}

// survivors lists the former position, in before, of each instruction
// f holds now, in layout order: -1 for one that was not there.
func survivors(f *Function, before map[*Instr]int) []int {
	var out []int
	f.ForEachInstr(func(_ *Block, in *Instr) {
		i, ok := before[in]
		if !ok {
			i = -1
		}
		out = append(out, i)
	})
	return out
}

func TestConstRendering(t *testing.T) {
	cases := []struct {
		c    *Const
		want string
	}{
		{NewConst(I32, -1), "-1"},
		{NewConst(I32, 42), "42"},
		{NewConst(I1, 1), "true"},
		{NewConst(I1, 0), "false"},
		{NewConst(I8, 255), "-1"},
		{NewConst(I64, -9223372036854775808), "-9223372036854775808"},
	}
	for _, tc := range cases {
		if got := string(new(printer).val(tc.c).buf); got != tc.want {
			t.Errorf("Const(%d,i%d) prints as %q, want %q", tc.c.Val, tc.c.Ty.Bits, got, tc.want)
		}
	}
}

func TestPredHelpers(t *testing.T) {
	for p := PredEQ; p <= PredSLE; p++ {
		if p.Inverse().Inverse() != p {
			t.Errorf("Inverse not involutive for %v", p)
		}
		if p.Swapped().Swapped() != p {
			t.Errorf("Swapped not involutive for %v", p)
		}
		got, ok := predFromString(p.String())
		if !ok || got != p {
			t.Errorf("predFromString(%q) = %v, %v", p.String(), got, ok)
		}
	}
}

func TestParseSwitch(t *testing.T) {
	src := `define i32 @sw(i32 noundef %0) {
entry:
  switch i32 %0, label %def [ i32 0, label %a i32 1, label %b ]

a:
  ret i32 10

b:
  ret i32 20

def:
  ret i32 -1
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := FuncString(f); got != src {
		t.Errorf("round trip:\n got:\n%s\nwant:\n%s", got, src)
	}
	term := f.Entry().Term()
	if term.Op != OpSwitch || len(term.Cases) != 2 || len(term.Succs) != 3 {
		t.Errorf("switch shape wrong: %+v", term)
	}
}

func TestVerifySwitchRejectsDuplicates(t *testing.T) {
	src := `define i32 @sw(i32 noundef %0) {
entry:
  switch i32 %0, label %def [ i32 5, label %a i32 5, label %b ]

a:
  ret i32 10

b:
  ret i32 20

def:
  ret i32 -1
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifyFunc(f); err == nil {
		t.Error("duplicate switch cases accepted")
	}
}
