package bleu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestExactMatchScoresOne(t *testing.T) {
	s := "define i32 @f ( i32 %0 ) { ret i32 %0 }"
	if got := Scorer(s)(s); got < 0.999 {
		t.Errorf("Scorer(s)(s) = %v, want 1", got)
	}
}

func TestDisjointScoresZero(t *testing.T) {
	if got := Scorer("one two three four")("alpha beta gamma delta"); got != 0 {
		t.Errorf("disjoint BLEU = %v, want 0", got)
	}
}

func TestPartialOverlapBetween(t *testing.T) {
	ref := "ret i32 %0"
	cand := "ret i64 %0"
	got := Scorer(ref)(cand)
	if got <= 0 || got >= 1 {
		t.Errorf("partial BLEU = %v, want in (0,1)", got)
	}
}

func TestMoreSimilarScoresHigher(t *testing.T) {
	ref := "define i32 @f ( i32 %0 ) { %2 = add i32 %0 , 1 ret i32 %2 }"
	close := "define i32 @f ( i32 %0 ) { %2 = add i32 %0 , 2 ret i32 %2 }"
	far := "define i32 @f ( i32 %0 ) { ret i32 7 }"
	if Scorer(ref)(close) <= Scorer(ref)(far) {
		t.Errorf("closer candidate should score higher: close=%v far=%v",
			Scorer(ref)(close), Scorer(ref)(far))
	}
}

func TestBrevityPenalty(t *testing.T) {
	ref := strings.Repeat("tok ", 20)
	short := "tok tok"
	long := strings.Repeat("tok ", 20)
	if Scorer(ref)(short) >= Scorer(ref)(long) {
		t.Error("brevity penalty not applied")
	}
}

func TestEmptyInputs(t *testing.T) {
	if Scorer("")("") != 1 {
		t.Error("two empty strings should score 1")
	}
	if Scorer("x")("") != 0 || Scorer("")("x") != 0 {
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
		v := Scorer(strings.Join(gen(s2, n2), " "))(strings.Join(gen(s1, n1), " "))
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
		text := strings.Join(toks, " ")
		return Scorer(text)(text) > 0.999
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNULTokensMatchReference scores short random texts over an
// alphabet of NUL, a delimiter, a space, invalid UTF-8 and two runes
// against the reference scorer: a token holding NUL is several words,
// and the reference's NUL-joined n-grams can be equal across token
// boundaries.
func TestNULTokensMatchReference(t *testing.T) {
	alpha := []string{"a", "b", "\x00", " ", ",", "\xff", "é"}
	rng := rand.New(rand.NewSource(1))
	gen := func() string {
		var sb strings.Builder
		for range rng.Intn(14) {
			sb.WriteString(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	for range 50000 {
		cand, ref := gen(), gen()
		if got, want := Scorer(ref)(cand), refScore(refSplit(cand), refSplit(ref)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Scorer(%q)(%q) = %v, reference %v", ref, cand, got, want)
		}
	}
}

// TestManyWordsMatchReference: a reference of more distinct words
// than 16 bits can number scores as the reference scorer does.
func TestManyWordsMatchReference(t *testing.T) {
	var ref, cand strings.Builder
	for i := range 70000 {
		fmt.Fprintf(&ref, "w%d ", i%69000)
		fmt.Fprintf(&cand, "w%d ", (i+5)%70500)
	}
	got, want := Scorer(ref.String())(cand.String()), refScore(refSplit(cand.String()), refSplit(ref.String()))
	if math.Float64bits(got) != math.Float64bits(want) || got == 0 {
		t.Fatalf("Scorer = %v, reference %v", got, want)
	}
}
