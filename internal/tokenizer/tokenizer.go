// Package tokenizer splits IR text into tokens for BLEU scoring and
// context-length filtering, standing in for the Qwen tokenizer the
// paper uses to cap samples at 2048 tokens.
package tokenizer

import "strings"

// MaxContextTokens is the paper's context-window cap (§IV-A note 5).
const MaxContextTokens = 2048

// Tokenize splits IR text into a deterministic token stream:
// identifiers and numbers are single tokens, punctuation characters
// are individual tokens, whitespace separates.
func Tokenize(s string) []string {
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

// Count returns len(Tokenize(s)) without building the tokens. Every
// delimiter is ASCII, so a walk over the bytes splits where the walk
// over the runes does, invalid UTF-8 included.
func Count(s string) int {
	n, inWord := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			inWord = false
		case '(', ')', '[', ']', '{', '}', ',', '=', ':', '*':
			n++
			inWord = false
		default:
			if !inWord {
				n++
				inWord = true
			}
		}
	}
	return n
}

// FitsContext reports whether s fits in the model context window.
func FitsContext(s string) bool { return Count(s) <= MaxContextTokens }
