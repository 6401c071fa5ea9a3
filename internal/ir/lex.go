package ir

import (
	"strconv"
	"strings"
)

// tok is a tiny single-line token cursor used by the parser. Tokens
// are idents (including keywords, types and integer literals), local
// refs (%x), global refs (@x), and single-character punctuation.
//
// The first 32 tokens of a line are held in an array inside the cursor
// and the rest, rarely, in more: no slice points into the cursor, so the
// parser that holds one stays on its caller's stack.
type tok struct {
	line  string // the line without its comment
	words [32]string
	more  []string // tokens past the array's
	n, i  int      // tokens in the line, and the next one
}

// lex points the cursor at the tokens of one line. Every token is a
// substring of line: the separators are all ASCII, so a byte scan
// cannot split a multi-byte rune. Punctuation characters are their own
// tokens; comments (';' to end of line) are stripped.
func (t *tok) lex(line string) *tok {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	t.line, t.more, t.n, t.i = line, t.more[:0], 0, 0
	start := -1
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '(', ')', ',', '=', '[', ']', '{', '}', ':':
			if start >= 0 {
				t.add(line[start:i])
				start = -1
			}
			if c := line[i]; c != ' ' && c != '\t' {
				t.add(line[i : i+1])
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		t.add(line[start:])
	}
	return t
}

func (t *tok) add(w string) {
	if t.n < len(t.words) {
		t.words[t.n] = w
	} else {
		t.more = append(t.more, w)
	}
	t.n++
}

// word returns the line's k-th token.
func (t *tok) word(k int) string {
	if k < len(t.words) {
		return t.words[k]
	}
	return t.more[k-len(t.words)]
}

func (t *tok) peek() string {
	if t.i < t.n {
		return t.word(t.i)
	}
	return ""
}

func (t *tok) eat(w string) bool {
	if t.peek() == w {
		t.i++
		return true
	}
	return false
}

// eatAnyIdent consumes the next token if it equals any of the given
// identifiers, returning true on a match.
func (t *tok) eatAnyIdent(ids ...string) bool {
	for _, id := range ids {
		if t.eat(id) {
			return true
		}
	}
	return false
}

// ident consumes and returns the next bare identifier ("" at EOL or
// punctuation/reference tokens).
func (t *tok) ident() string {
	w := t.peek()
	if w == "" || strings.IndexByte("%@(),=[]{}:", w[0]) >= 0 {
		return ""
	}
	t.i++
	return w
}

// local consumes a %name token, returning the bare name.
func (t *tok) local() (string, bool) { return t.sigil('%') }

// global consumes a @name token, returning the bare name.
func (t *tok) global() (string, bool) { return t.sigil('@') }

func (t *tok) sigil(c byte) (string, bool) {
	if w := t.peek(); len(w) > 1 && w[0] == c {
		t.i++
		return w[1:], true
	}
	return "", false
}

// typ consumes a type token: iN, ptr, or void.
func (t *tok) typ() (Type, bool) {
	w := t.peek()
	switch {
	case w == "ptr":
		t.i++
		return ptrTy, true
	case w == "void":
		t.i++
		return Void, true
	case strings.HasPrefix(w, "i") && len(w) > 1:
		bits, err := strconv.Atoi(w[1:])
		if err != nil || bits < 1 || bits > 64 {
			return nil, false
		}
		t.i++
		return IntType{bits}, true
	}
	return nil, false
}

// rest returns the unconsumed remainder of the line, space-joined: the
// line's own tail when it reads that way already, as a printed
// header's "#0 {" does.
func (t *tok) rest() string {
	tail := strings.TrimRight(t.line, " \t")
	end := len(tail)
	for k := t.n - 1; k >= t.i; k-- {
		w := t.word(k)
		if !strings.HasSuffix(tail, w) || k > t.i && !strings.HasSuffix(tail[:len(tail)-len(w)], " ") {
			words := make([]string, t.n-t.i)
			for k := range words {
				words[k] = t.word(t.i + k)
			}
			return strings.Join(words, " ")
		}
		tail = tail[:len(tail)-len(w)]
		if k > t.i {
			tail = tail[:len(tail)-1]
		}
	}
	return t.line[len(tail):end]
}
