package bleu

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExactMatchScoresOne(t *testing.T) {
	s := "define i32 @f ( i32 %0 ) { ret i32 %0 }"
	if got := ScoreText(s, s); got < 0.999 {
		t.Errorf("ScoreText(s,s) = %v, want 1", got)
	}
}

func TestDisjointScoresZero(t *testing.T) {
	if got := ScoreText("alpha beta gamma delta", "one two three four"); got != 0 {
		t.Errorf("disjoint BLEU = %v, want 0", got)
	}
}

func TestPartialOverlapBetween(t *testing.T) {
	ref := "ret i32 %0"
	cand := "ret i64 %0"
	got := ScoreText(cand, ref)
	if got <= 0 || got >= 1 {
		t.Errorf("partial BLEU = %v, want in (0,1)", got)
	}
}

func TestMoreSimilarScoresHigher(t *testing.T) {
	ref := "define i32 @f ( i32 %0 ) { %2 = add i32 %0 , 1 ret i32 %2 }"
	close := "define i32 @f ( i32 %0 ) { %2 = add i32 %0 , 2 ret i32 %2 }"
	far := "define i32 @f ( i32 %0 ) { ret i32 7 }"
	if ScoreText(close, ref) <= ScoreText(far, ref) {
		t.Errorf("closer candidate should score higher: close=%v far=%v",
			ScoreText(close, ref), ScoreText(far, ref))
	}
}

func TestBrevityPenalty(t *testing.T) {
	ref := strings.Repeat("tok ", 20)
	short := "tok tok"
	long := strings.Repeat("tok ", 20)
	if ScoreText(short, ref) >= ScoreText(long, ref) {
		t.Error("brevity penalty not applied")
	}
}

func TestEmptyInputs(t *testing.T) {
	if ScoreText("", "") != 1 {
		t.Error("two empty strings should score 1")
	}
	if ScoreText("", "x") != 0 || ScoreText("x", "") != 0 {
		t.Error("one-sided empty should score 0")
	}
}

// Property: BLEU is bounded in [0,1].
func TestScoreBounded(t *testing.T) {
	words := []string{"add", "i32", "%0", "ret", "mul", ",", "="}
	gen := func(seed uint32, n uint8) []string {
		out := make([]string, int(n)%12)
		s := seed
		for i := range out {
			s = s*1664525 + 1013904223
			out[i] = words[s%uint32(len(words))]
		}
		return out
	}
	check := func(s1, s2 uint32, n1, n2 uint8) bool {
		v := score(gen(s1, n1), gen(s2, n2))
		return v >= 0 && v <= 1.0000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: identical non-empty sequences score 1.
func TestIdentityProperty(t *testing.T) {
	check := func(seed uint32, n uint8) bool {
		words := []string{"a", "b", "c", "d"}
		m := int(n)%10 + 1
		toks := make([]string, m)
		s := seed
		for i := range toks {
			s = s*1664525 + 1013904223
			toks[i] = words[s%4]
		}
		return score(toks, toks) > 0.999
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
