package dataset

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeIRLine(t *testing.T) {
	toks := tokenize("%2 = add nsw i32 %0, 1")
	want := []string{"%2", "=", "add", "nsw", "i32", "%0", ",", "1"}
	if len(toks) != len(want) {
		t.Fatalf("got %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestCountAndContext(t *testing.T) {
	short := "define i32 @f() { ret i32 0 }"
	if !fitsContext(short) {
		t.Error("short function should fit the context window")
	}
	long := strings.Repeat("tok ", maxContextTokens+10)
	if fitsContext(long) {
		t.Error("overlong input should not fit")
	}
	if countTokens("") != 0 {
		t.Error("empty string should have zero tokens")
	}
}

func TestTokenizeDeterministic(t *testing.T) {
	check := func(seed uint32) bool {
		words := []string{"add", "i32", "%0", "(", ")", ",", "store"}
		var sb strings.Builder
		s := seed
		for i := 0; i < 20; i++ {
			s = s*1664525 + 1013904223
			sb.WriteString(words[s%uint32(len(words))])
			if s%3 == 0 {
				sb.WriteByte(' ')
			}
		}
		a := tokenize(sb.String())
		b := tokenize(sb.String())
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPunctuationSplit(t *testing.T) {
	toks := tokenize("call i32 @f(i32 %0, i32 %1)")
	joined := strings.Join(toks, "|")
	for _, want := range []string{"(", ")", ","} {
		found := false
		for _, tk := range toks {
			if tk == want {
				found = true
			}
		}
		if !found {
			t.Errorf("punct %q not split out of %q", want, joined)
		}
	}
}

// TestCountEqualsLenTokenize: countTokens walks bytes where tokenize walks
// runes and builds nothing; the filter that decides which samples the
// corpus keeps must not be able to tell them apart.
func TestCountEqualsLenTokenize(t *testing.T) {
	cases := []string{
		"", " \t\n\r ", "a", " a ", "ab cd", "()[]{},=:*", "a(b)c", "x=*y", ",,", "a ,b",
		"é", "日本 語", "a日(本)b", "\xff", "a\xffb \xff\xfe(\xc3", "\xe6\x97", // multi-byte, lone and truncated bytes
		"define i32 @f(i32 noundef %0, ptr %1) {\nentry:\n  %2 = add nsw i32 %0, -1\n  store i32 %2, ptr %1, align 4\n  switch i32 %2, label %d [\n    i32 0, label %a\n  ]\n}\n",
	}
	for _, d := range "()[]{},=:*" {
		cases = append(cases, string(d), "a"+string(d), string(d)+"a", "a"+string(d)+string(d)+"b")
	}
	for _, s := range cases {
		if got, want := countTokens(s), len(tokenize(s)); got != want {
			t.Errorf("countTokens(%q) = %d, len(tokenize) = %d", s, got, want)
		}
	}
	// Random strings over an alphabet dense in delimiters, multi-byte
	// runes and bytes that are not UTF-8, then over whatever quick draws.
	alphabet := []string{"a", "%0", " ", "\n", "\t", "\r", "(", ")", "[", "]", "{", "}", ",", "=", ":", "*", "é", "語", "\xff", "\xc3", "\x80"}
	fromAlphabet := func(picks []byte) bool {
		var sb strings.Builder
		for _, p := range picks {
			sb.WriteString(alphabet[int(p)%len(alphabet)])
		}
		return countTokens(sb.String()) == len(tokenize(sb.String()))
	}
	anyString := func(s string) bool { return countTokens(s) == len(tokenize(s)) }
	for _, check := range []any{fromAlphabet, anyString} {
		if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error(err)
		}
	}
}

// tokenize is the reference countTokens must agree with; it splits IR text
// into a deterministic token stream:
// identifiers and numbers are single tokens, punctuation characters
// are individual tokens, whitespace separates.
func tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			flush()
		case strings.ContainsRune("()[]{},=:*", r):
			flush()
			toks = append(toks, string(r))
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}
