// Package tokenizer splits IR text into tokens for BLEU scoring and
// context-length filtering, standing in for the Qwen tokenizer the
// paper uses to cap samples at 2048 tokens.
package tokenizer

// maxContextTokens is the paper's context-window cap (§IV-A note 5).
const maxContextTokens = 2048

// count returns the number of tokens in s: identifiers and numbers are
// single tokens, punctuation characters are individual tokens,
// whitespace separates. Nothing is built. Every delimiter is ASCII, so
// the walk over the bytes splits where a walk over the runes would
// (tokenize, in the tests), invalid UTF-8 included.
func count(s string) int {
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
func FitsContext(s string) bool { return count(s) <= maxContextTokens }
