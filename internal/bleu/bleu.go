// Package bleu implements the BLEU similarity metric (Papineni et
// al., ACL 2002) over token streams. The paper uses BLEU both as the
// continuous shaping term b_i in the reward (Eq. 1) and to score
// emitted diagnostics against Alive2's (Eq. 2).
package bleu

import (
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// maxN is the n-gram order used (standard BLEU-4).
const maxN = 4

// Scorer prepares reference once and returns a function that scores a
// candidate against it: BLEU over the whitespace-and-punctuation tokens
// of both. The function only reads what Scorer prepared, so one
// reference may score candidates on many goroutines at once.
func Scorer(reference string) func(candidate string) float64 {
	return prepare(reference).score
}

// A text is one side of a comparison as word ids: token k is the words
// ids[tok[k]:tok[k+1]]. A token's words are its NUL-separated parts,
// so that two n-grams have equal ids exactly when they join into equal
// strings with NUL between tokens, the identity the reference scorer
// in ref_test.go counts by. Tokens without a NUL, all of them in IR,
// are one word.
type text struct {
	ids, tok []int32
}

// gram is an n-gram: the words ids[lo:hi] of its text.
type gram struct{ lo, hi int32 }

// grams returns the n-grams of t in grams[:0], sorted by their words.
func (t *text) grams(n int, grams []gram) []gram {
	grams = grams[:0]
	for i := 0; i+n < len(t.tok); i++ {
		grams = append(grams, gram{lo: t.tok[i], hi: t.tok[i+n]})
	}
	slices.SortFunc(grams, func(a, b gram) int { return t.compare(a, t, b) })
	return grams
}

// compare orders n-gram a of t against n-gram b of u by their words.
func (t *text) compare(a gram, u *text, b gram) int {
	return slices.Compare(t.ids[a.lo:a.hi], u.ids[b.lo:b.hi])
}

// A reference is prepared once: its distinct words sorted (a word's id
// is its index there) and its n-grams of every order sorted.
type reference struct {
	text
	words []string
	grams [maxN][]gram
}

func prepare(s string) *reference {
	s = valid(s)
	nw, nt := count(s)
	r := &reference{words: make([]string, 0, nw)}
	split(s, func(w string, _ bool) { r.words = append(r.words, w) })
	slices.Sort(r.words)
	r.words = slices.Compact(r.words)
	r.text = r.read(s, make([]int32, nw+nt+1), nw)
	all := make([]gram, 0, maxN*nt)
	for n := range r.grams {
		r.grams[n] = r.text.grams(n+1, all[len(all):])
		all = all[:len(all)+len(r.grams[n])]
	}
	return r
}

// read returns s, which has nw words, as ids carved from slab; a word
// the reference lacks gets the id one past its last, so an n-gram
// holding one matches nothing.
func (r *reference) read(s string, slab []int32, nw int) text {
	t := text{ids: slab[:0:nw], tok: append(slab[nw:nw], 0)}
	split(s, func(w string, last bool) {
		id, ok := slices.BinarySearch(r.words, w)
		if !ok {
			id = len(r.words)
		}
		t.ids = append(t.ids, int32(id))
		if last {
			t.tok = append(t.tok, int32(len(t.ids)))
		}
	})
	return t
}

// score computes BLEU of candidate against r. It uses uniform weights
// over 1..4-gram modified precisions with the brevity penalty, and +1
// smoothing on higher-order n-grams so near-misses still give a
// gradient (the reward-shaping role requires a non-vanishing score).
func (r *reference) score(candidate string) float64 {
	s := valid(candidate)
	nw, nt := count(s)
	var idBuf [512]int32
	var gramBuf [256]gram
	slab, grams := idBuf[:], gramBuf[:]
	if nw+nt+1 > len(slab) {
		slab = make([]int32, nw+nt+1)
	}
	if nt > len(grams) {
		grams = make([]gram, nt)
	}
	c := r.read(s, slab, nw)
	lc, lr := len(c.tok)-1, len(r.tok)-1
	if lc == 0 || lr == 0 {
		if lc == lr {
			return 1
		}
		return 0
	}
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		match, total := r.overlap(&c, c.grams(n, grams), n), lc-n+1
		if total <= 0 {
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
	if lc < lr {
		bp = math.Exp(1 - float64(lr)/float64(lc))
	}
	return bp * math.Exp(logSum/maxN)
}

// overlap returns the clipped matches of the candidate's n-grams cg,
// sorted, against the reference's n-grams of the same order: each
// distinct n-gram counts as often as it occurs in the candidate, at
// most as often as in the reference. Both lists are sorted, so one
// merge walks them.
func (r *reference) overlap(c *text, cg []gram, n int) (match int) {
	rg, j := r.grams[n-1], 0
	for i := 0; i < len(cg); {
		k := i + 1
		for k < len(cg) && c.compare(cg[k], c, cg[i]) == 0 {
			k++
		}
		for j < len(rg) && r.compare(rg[j], c, cg[i]) < 0 {
			j++
		}
		m := j
		for m < len(rg) && r.compare(rg[m], c, cg[i]) == 0 {
			m++
		}
		match += min(k-i, m-j)
		i, j = k, m
	}
	return match
}

// valid returns s as the tokenizer reads it: each byte of an invalid
// UTF-8 sequence is U+FFFD, as ranging over a string decodes it.
func valid(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// count returns how many words and tokens split finds in s.
func count(s string) (words, tokens int) {
	split(s, func(_ string, last bool) {
		words++
		if last {
			tokens++
		}
	})
	return words, tokens
}

// split cuts s into tokens, each whitespace run separating two and each
// of ()[]{},=: a token of its own, and calls fn with every word of every
// token in order, last true for a token's last word. Every delimiter is
// ASCII, so a walk over the bytes splits where a walk over the runes
// would.
func split(s string, fn func(w string, last bool)) {
	start := -1 // where the token being read began
	flush := func(end int) {
		if start < 0 {
			return
		}
		w := s[start:end]
		for i := strings.IndexByte(w, 0); i >= 0; i = strings.IndexByte(w, 0) {
			fn(w[:i], false)
			w = w[i+1:]
		}
		fn(w, true)
		start = -1
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			flush(i)
		case '(', ')', '[', ']', '{', '}', ',', '=', ':':
			flush(i)
			start = i
			flush(i + 1)
		default:
			if start < 0 {
				start = i
			}
		}
	}
	flush(len(s))
}
