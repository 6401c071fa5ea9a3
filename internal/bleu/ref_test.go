package bleu

import (
	"math"
	"strings"
	"testing"
)

// The reference the fuzz target below holds Scorer to: score, split and
// ngramOverlap as they were written before n-grams were counted over
// word ids, bodies verbatim under ref-prefixed names (string tokens,
// one map per n-gram order keyed by the tokens joined with NUL). The
// id-based scorer must score every text pair to the same float64 bits.

func refScore(candidate, reference []string) float64 {
	if len(candidate) == 0 || len(reference) == 0 {
		if len(candidate) == len(reference) {
			return 1
		}
		return 0
	}
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		match, total := refNgramOverlap(candidate, reference, n)
		if total == 0 {
			// Candidate shorter than n: treat as fully smoothed.
			match, total = 1, 1
		}
		var p float64
		if n == 1 {
			if match == 0 {
				return 0 // no unigram overlap at all
			}
			p = float64(match) / float64(total)
		} else {
			p = (float64(match) + 1) / (float64(total) + 1)
		}
		logSum += math.Log(p)
	}
	bp := 1.0
	if len(candidate) < len(reference) {
		bp = math.Exp(1 - float64(len(reference))/float64(len(candidate)))
	}
	return bp * math.Exp(logSum/maxN)
}

func refSplit(s string) []string {
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
		case strings.ContainsRune("()[]{},=:", r):
			flush()
			toks = append(toks, string(r))
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

func refNgramOverlap(cand, ref []string, n int) (match, total int) {
	if len(cand) < n {
		return 0, 0
	}
	refCounts := map[string]int{}
	for i := 0; i+n <= len(ref); i++ {
		refCounts[strings.Join(ref[i:i+n], "\x00")]++
	}
	candCounts := map[string]int{}
	for i := 0; i+n <= len(cand); i++ {
		candCounts[strings.Join(cand[i:i+n], "\x00")]++
	}
	for g, c := range candCounts {
		r := refCounts[g]
		if c < r {
			match += c
		} else {
			match += r
		}
		total += c
	}
	return match, total
}

// FuzzScoreVsReference: on any pair of texts Scorer returns the
// reference's float64 bit for bit. Seeds: IR-shaped text, every
// delimiter of the tokenizer, whitespace runs, non-ASCII runes and
// invalid UTF-8, repeated n-grams (the clipping), empty sides, and
// tokens holding NUL, whose n-grams the reference's joined keys can
// confuse across token boundaries.
func FuzzScoreVsReference(f *testing.F) {
	for _, seed := range [][2]string{
		{"define i32 @f(i32 %0) {\n  %2 = add i32 %0, 1\n  ret i32 %2\n}", "define i32 @f(i32 %0) {\n  ret i32 %0\n}"},
		{"()[]{},=:", "( ) [ ] { } , = :"},
		{"a=b:c,d(e)[f]{g}", "a = b : c , d ( e ) [ f ] { g }"},
		{" \t\r\n x \t\r\n ", "x"},
		{"é ∀x: λ→μ, 日本", "é ∀x : λ→μ , 日本"},
		{"\xff\xfe bad\xc3 utf8", "\xff bad utf8"},
		{"the the the the the the the", "the cat the mat"},
		{"", ""},
		{"", "x"},
		{"x", ""},
		{"ret", "ret i32 %0"},
		{"a\x00b c a\x00 \x00", "a b\x00c \x00 a\x00"},
		{"x\x00\x00y z x", "x \x00y\x00z \x00\x00"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, cand, ref string) {
		got, want := Scorer(ref)(cand), refScore(refSplit(cand), refSplit(ref))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Scorer(%q)(%q) = %v, reference %v", ref, cand, got, want)
		}
	})
}
