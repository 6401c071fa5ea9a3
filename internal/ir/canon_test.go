package ir

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// checkPrinter compares everything the one printer produces for f with
// the reference implementations in ref_test.go. The key comparison is
// the one that matters across restarts: its bytes are persisted.
func checkPrinter(t *testing.T, f *Function) {
	t.Helper()
	key := refCanonicalKey(f)
	if got := CanonicalKey(f); got != key {
		t.Errorf("CanonicalKey diverged from the reference:\n got %q\nwant %q", got, key)
	}
	// The append form, after a prefix it must keep, into a buffer with
	// no room left and into one with room to spare; the seeds with
	// whitespace or non-ASCII names take the odd-name path.
	for _, prefix := range []string{"", "k\u00e9y \"\n"} {
		for _, room := range []int{0, 4096} {
			dst := append(make([]byte, 0, len(prefix)+room), prefix...)
			if got := string(AppendCanonicalKey(dst, f)); got != prefix+key {
				t.Errorf("AppendCanonicalKey after %q (room %d) diverged from the reference:\n got %q\nwant %q", prefix, room, got, prefix+key)
			}
		}
	}
	if got, want := CanonicalText(f), refCanonicalText(f); got != want {
		t.Errorf("CanonicalText diverged from the reference:\n got %q\nwant %q", got, want)
	}
	if got, want := FuncString(f), refFuncString(f); got != want {
		t.Errorf("FuncString diverged from the reference:\n got %q\nwant %q", got, want)
	}
	f.ForEachInstr(func(_ *Block, in *Instr) {
		if got, want := FormatInstr(in), refFormatInstr(in); got != want {
			t.Errorf("FormatInstr = %q, reference %q", got, want)
		}
	})
}

var canonSeeds = []string{
	sampleFn,
	`define i32 @g(i32 noundef %x) {
entry:
  %c = icmp eq i32 %x, 0
  br i1 %c, label %a, label %b

a:
  br label %j

b:
  %m = mul nuw nsw i32 %x, 3
  br label %j

j:
  %r = phi i32 [ 7, %a ], [ %m, %b ]
  ret i32 %r
}
`,
	`declare void @ext(i32)

define void @h(i32 noundef %v, ptr %p) {
  %slot = alloca i32, align 4
  store i32 %v, ptr %slot
  %l = load i32, ptr %slot
  call void @ext(i32 %l)
  %q = call i32 @pure(i32 undef, i1 true)
  store i32 poison, ptr @glob
  ret void
}
`,
	`define i8 @sw(i8 %v) {
top:
  switch i8 %v, label %d [ i8 0, label %z i8 -1, label %d ]

z:
  %e = sdiv exact i8 %v, 3
  %w = zext i1 false to i8
  %fr = freeze i8 %w
  ret i8 %fr

d:
  unreachable
}
`,
	// A single block that names itself, and a block reference the
	// numbering has to resolve forwards.
	"define void @spin() {\nself:\n  br label %self\n}\n",
	// Names the lexer keeps whole but FingerprintText splits: the key
	// has to come out as the reference's, not as printed.
	"define i32 @a\u00a0b(i32 %x) {\n  %y = call i32 @c\u2003d(i32 %x)\n  store i32 %y, ptr @g\vh\n  ret i32 %y\n}\n",
	"define i32 @cr\r(i32 %x) {\r\n  ret i32 %x\r\n}\r\n",
	// Names that are numbers, or "entry", but not the ones the
	// canonical scheme gives them; the printer must not keep any of them.
	// Values named with each other's numbers, and a parameter named like
	// a later result:
	"define i32 @swap(i32 %1, i32 %3) {\n  %0 = add i32 %1, %3\n  %2 = mul i32 %0, %1\n  ret i32 %2\n}\n",
	// entry naming a block that is not the first of several, and a
	// first block named with a later value's number:
	`define i32 @late(i32 %0, i1 %1) {
3:
  br i1 %1, label %entry, label %2

entry:
  %5 = add i32 %0, 1
  br label %2

2:
  %4 = phi i32 [ %0, %3 ], [ %5, %entry ]
  ret i32 %4
}
`,
	// 0 naming the block of a single-block function:
	"define i32 @one(i32 %0) {\n0:\n  %1 = add i32 %0, 1\n  ret i32 %1\n}\n",
	// Leading zeros, a sign, and numbers past one digit:
	"define i32 @zeros(i32 %00, i32 %+1) {\n  %02 = add i32 %00, %+1\n  %3 = add i32 %02, 1\n  %4 = add i32 %3, 1\n  %5 = add i32 %4, 1\n  %6 = add i32 %5, 1\n  %7 = add i32 %6, 1\n  %8 = add i32 %7, 1\n  %9 = add i32 %8, 1\n  %010 = add i32 %9, 1\n  %11 = add i32 %010, 1\n  ret i32 %11\n}\n",
	// Already canonical except for whitespace and non-ASCII names: a
	// value's, the function's and a callee's.
	"define i32 @odd\u00a0one(i32 %0, i32 %\u00e9t\u00e9, i32 %x\vy) {\nentry:\n  %3 = call i32 @c\u2003d(i32 %0)\n  %4 = add i32 %3, %\u00e9t\u00e9\n  %5 = sub i32 %4, %x\vy\n  ret i32 %5\n}\n",
	// A canonically numbered function, as every search state is.
	`define i32 @canon(i32 noundef %0, i32 %1) {
2:
  %3 = icmp sgt i32 %0, %1
  br i1 %3, label %4, label %6

4:
  %5 = sub i32 %0, %1
  br label %6

6:
  %7 = phi i32 [ %5, %4 ], [ 0, %2 ]
  ret i32 %7
}
`,
}

func TestPrinterMatchesReference(t *testing.T) {
	for _, src := range canonSeeds {
		m, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		for _, f := range m.Funcs {
			checkPrinter(t, f)
		}
	}
}

// TestStructurallyEqualMatchesReference: same answers as comparing
// renumbered clones, over every ordered pair of the seeds.
func TestStructurallyEqualMatchesReference(t *testing.T) {
	var fns []*Function
	for _, src := range canonSeeds {
		m, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, m.Funcs...)
		// The same functions again under other names.
		m, err = Parse(strings.NewReplacer("%x", "%renamed", "%v", "%w0", "@g(", "@g2(").Replace(src))
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, m.Funcs...)
	}
	equal := 0
	for _, a := range fns {
		for _, b := range fns {
			got, want := FuncsStructurallyEqual(a, b), refStructurallyEqual(a, b)
			if got != want {
				t.Errorf("FuncsStructurallyEqual(@%s, @%s) = %v, reference %v", a.NameStr, b.NameStr, got, want)
			}
			if got && a != b {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Error("no distinct pair compared equal; the test is vacuous")
	}
}

func FuzzCanonicalKey(f *testing.F) {
	for _, src := range canonSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			checkPrinter(t, fn)
		}
	})
}

func FuzzLexTokens(f *testing.F) {
	for _, src := range canonSeeds {
		for _, line := range strings.Split(src, "\n") {
			f.Add(line)
		}
	}
	f.Add("  %a=add i32 %b,(1)[x]{y}:z ; comment = ( ,")
	f.Add("\t\t")
	f.Add("%été = or i1 %世, true")
	f.Fuzz(func(t *testing.T, line string) {
		if !utf8.ValidString(line) {
			return // Parse rejects it before the lexer sees it
		}
		var tk tok
		tk.lex(line)
		got, want := make([]string, tk.n), refLex(line)
		for k := range got {
			got[k] = tk.word(k)
		}
		if len(got) != len(want) {
			t.Fatalf("lex(%q) = %q, reference %q", line, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lex(%q) = %q, reference %q", line, got, want)
			}
		}
	})
}

func FuzzFingerprintText(f *testing.F) {
	for _, src := range canonSeeds {
		f.Add(src)
	}
	f.Add(" \n\n a  b\t c \r\n\n d\xff \n")
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := FingerprintText(s), refFingerprintText(s); got != want {
			t.Fatalf("FingerprintText(%q) = %q, reference %q", s, got, want)
		}
	})
}

// TestParseRejectsInvalidUTF8: the old lexer rewrote invalid bytes in
// names to U+FFFD; tokens are substrings now, and a raw invalid byte in
// a key would not survive the store's JSON encoding (a permanent miss).
func TestParseRejectsInvalidUTF8(t *testing.T) {
	cases := []struct {
		name, src string
		line      int // 0: must parse
	}{
		{"valid multibyte name", "define i32 @café(i32 %世) {\n  ret i32 %世\n}\n", 0},
		{"literal replacement char", "define i32 @a\ufffd() {\n  ret i32 0\n}\n", 0},
		{"function name", "define i32 @a\xffb() {\n  ret i32 0\n}\n", 1},
		{"value name", "define i32 @f(i32 %x) {\n  %y\xc3 = add i32 %x, 1\n  ret i32 %y\xc3\n}\n", 2},
		{"callee", "define void @f() {\n  call void @g\x80()\n  ret void\n}\n", 2},
		{"truncated rune at end of line", "define void @f() {\n  ret void\n}\n; \xe4\xb8\n", 4},
		{"comment", "; caf\xe9\ndefine void @f() {\n  ret void\n}\n", 1},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if tc.line == 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%s: error %v (%T), want *ParseError", tc.name, err, err)
			continue
		}
		if pe.Line != tc.line || !strings.Contains(pe.msg, "UTF-8") {
			t.Errorf("%s: %v, want an invalid UTF-8 error on line %d", tc.name, pe, tc.line)
		}
	}
}
