package dataset

// The context-length filter counts IR tokens the way a tokenizer would,
// standing in for the Qwen tokenizer the paper uses to cap samples at
// 2048 tokens. BLEU does not use it: bleu.split has its own delimiter
// set, without '*'.

// maxContextTokens is the paper's context-window cap (§IV-A note 5).
const maxContextTokens = 2048

// countTokens returns the number of tokens in s: identifiers and
// numbers are single tokens, punctuation characters are individual
// tokens, whitespace separates. Nothing is built. Every delimiter is
// ASCII, so the walk over the bytes splits where a walk over the runes
// would (tokenize, in the tests), invalid UTF-8 included.
func countTokens(s string) int {
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

// fitsContext reports whether s fits in the model context window.
func fitsContext(s string) bool { return countTokens(s) <= maxContextTokens }
