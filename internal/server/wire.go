package server

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// /v1/verify's two wire messages are read and written here by hand:
// a verify is the service's most frequent request, and encoding/json's
// reflection was most of what the server's own code allocated for one.
// Every other body, and every /v1/verify body this reader declines, is
// encoding/json's.

// decodeVerifyRequest reads b into req when b is an object of the
// shape json.Marshal(VerifyRequest) writes: the keys src, tgt,
// timeout_ms and options (an object of max_paths, max_steps and
// solver_budget), in any order, with JSON whitespace and the short
// escapes \" \\ \/ \b \f \n \r \t. req.Options then points at opts. It
// returns false, leaving req zero, on anything else: an unknown,
// case-variant or repeated key, a \u escape, a byte past ASCII, null,
// a number with a fraction or an exponent or more than 18 digits, or
// bytes after the object. Whatever it accepts, json.Unmarshal accepts
// and reads alike (FuzzVerifyRequestCodec).
func decodeVerifyRequest(b []byte, req *VerifyRequest, opts *OptionsJSON) bool {
	*req, *opts = VerifyRequest{}, OptionsJSON{}
	r := reader{b: b}
	var seen uint
	first := func(bit uint) bool {
		dup := seen&bit != 0
		seen |= bit
		return !dup
	}
	var ok bool
	option := func(key []byte) bool {
		switch string(key) {
		case "max_paths":
			opts.MaxPaths, ok = r.int()
			return ok && first(1<<4)
		case "max_steps":
			opts.MaxSteps, ok = r.int()
			return ok && first(1<<5)
		case "solver_budget":
			opts.SolverBudget, ok = r.int()
			return ok && first(1<<6)
		}
		return false
	}
	field := func(key []byte) bool {
		switch string(key) {
		case "src":
			req.Src, ok = r.text()
			return ok && first(1<<0)
		case "tgt":
			req.Tgt, ok = r.text()
			return ok && first(1<<1)
		case "timeout_ms":
			req.TimeoutMs, ok = r.int()
			return ok && first(1<<2)
		case "options":
			req.Options = opts
			return first(1<<3) && r.object(option)
		}
		return false
	}
	if r.object(field) && r.end() {
		return true
	}
	*req = VerifyRequest{}
	return false
}

// reader is a cursor over a request body.
type reader struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c, which is not 0, after whitespace, if c is next.
func (r *reader) eat(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.i++
	return true
}

// end reports whether only whitespace is left.
func (r *reader) end() bool {
	r.peek()
	return r.i == len(r.b)
}

// object reads {"key": value, ...}, handing each key, a window of the
// body, to field, which reads the value after the colon.
func (r *reader) object(field func(key []byte) bool) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	for {
		// A key is matched as it is spelled: one with an escape is not
		// one of ours.
		key, _, ok := r.str()
		if !ok || !r.eat(':') || !field(key) {
			return false
		}
		if r.eat('}') {
			return true
		}
		if !r.eat(',') {
			return false
		}
	}
}

// str reads a string: the bytes between its quotes, as spelled, and
// whether an escape is among them.
func (r *reader) str() (raw []byte, escaped, ok bool) {
	if !r.eat('"') {
		return nil, false, false
	}
	for start := r.i; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], escaped, true
		case c == '\\':
			r.i++
			if r.i == len(r.b) || unescape(r.b[r.i]) == 0 {
				return nil, false, false
			}
			escaped = true
		case c < 0x20 || c >= utf8.RuneSelf:
			return nil, false, false
		}
	}
	return nil, false, false
}

// text reads a string value into a string of its own: the IR parser
// keeps windows of its input, so the text must outlive the body's
// buffer.
func (r *reader) text() (string, bool) {
	raw, escaped, ok := r.str()
	if !escaped {
		return string(raw), ok
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for j := 0; j < len(raw); j++ {
		if raw[j] == '\\' {
			j++
			sb.WriteByte(unescape(raw[j]))
		} else {
			sb.WriteByte(raw[j])
		}
	}
	return sb.String(), true
}

// unescape is the byte the short escape \c stands for, 0 when \c is
// not one.
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// int reads an integer of at most 18 digits, with no fraction and no
// exponent: one that fits an int64 however it is spelled.
func (r *reader) int() (int, bool) {
	neg := r.eat('-')
	start := r.i
	var v int64
	for ; r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9'; r.i++ {
		v = v*10 + int64(r.b[r.i]-'0')
	}
	n := r.i - start
	if n == 0 || n > 18 || n > 1 && r.b[start] == '0' || r.i < len(r.b) && strings.IndexByte(".eE", r.b[r.i]) >= 0 {
		return 0, false
	}
	if neg {
		v = -v
	}
	return int(v), int64(int(v)) == v
}

// appendVerifyResponse appends what json.NewEncoder(w).Encode(resp)
// writes: the fields in order with the empty ones left out, strings
// HTML-safe, the counterexample's keys sorted, and a newline.
func appendVerifyResponse(dst []byte, resp *VerifyResponse) []byte {
	dst = appendString(append(dst, `{"verdict":`...), resp.Verdict)
	if resp.Diag != "" {
		dst = appendString(append(dst, `,"diag":`...), resp.Diag)
	}
	if resp.Reason != "" {
		dst = appendString(append(dst, `,"reason":`...), resp.Reason)
	}
	if len(resp.Counterexample) > 0 {
		dst = append(dst, `,"counterexample":`...)
		keys := make([]string, 0, len(resp.Counterexample))
		for k := range resp.Counterexample {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		sep := byte('{')
		for _, k := range keys {
			dst = append(appendString(append(dst, sep), k), ':')
			dst = strconv.AppendUint(dst, resp.Counterexample[k], 10)
			sep = ','
		}
		dst = append(dst, '}')
	}
	if resp.SolverConflicts != 0 {
		dst = strconv.AppendInt(append(dst, `,"solver_conflicts":`...), int64(resp.SolverConflicts), 10)
	}
	return append(dst, "}\n"...)
}

// appendString appends s quoted as encoding/json writes it with HTML
// escaping on: " and \ escaped by a backslash, the control bytes by
// their short escape or \u00XX, <, > and & as \u003c, \u003e and
// \u0026, an invalid UTF-8 byte as \ufffd, and U+2028 and U+2029 as
// \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		ch, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case ch == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case ch == '\u2028' || ch == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[ch&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
