// Package bleu implements the BLEU similarity metric (Papineni et
// al., ACL 2002) over token streams. The paper uses BLEU both as the
// continuous shaping term b_i in the reward (Eq. 1) and to score
// emitted diagnostics against Alive2's (Eq. 2).
package bleu

import (
	"math"
	"strings"
)

// maxN is the n-gram order used (standard BLEU-4).
const maxN = 4

// score computes BLEU of candidate against a single reference, both
// given as token slices. It uses uniform weights over 1..4-gram
// modified precisions with the brevity penalty, and +1 smoothing on
// higher-order n-grams so near-misses still give a gradient (the
// reward-shaping role requires a non-vanishing score).
func score(candidate, reference []string) float64 {
	if len(candidate) == 0 || len(reference) == 0 {
		if len(candidate) == len(reference) {
			return 1
		}
		return 0
	}
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		match, total := ngramOverlap(candidate, reference, n)
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

// ScoreText computes BLEU over whitespace-and-punctuation tokens of
// two strings.
func ScoreText(candidate, reference string) float64 {
	return score(split(candidate), split(reference))
}

func split(s string) []string {
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

// ngramOverlap returns (clipped matches, candidate n-gram count).
func ngramOverlap(cand, ref []string, n int) (match, total int) {
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
