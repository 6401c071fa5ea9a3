package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError is a syntax or reference error encountered while parsing
// IR text. It mirrors the "Syntax error: invalid IR" verdict category
// used in the paper's evaluation.
type ParseError struct {
	Line int
	msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.msg)
}

// Parse parses a module (declarations and function definitions) from
// LLVM-like textual IR. It must be valid UTF-8: names are substrings of
// src, and a cache key holding invalid bytes would not survive JSON.
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n"), tk: tok{words: make([]string, 0, 32)}}
	for i, line := range p.lines {
		if !utf8.ValidString(line) {
			return nil, &ParseError{Line: i + 1, msg: "invalid UTF-8"}
		}
	}
	m := &Module{}
	for !p.eof() {
		line := strings.TrimSpace(p.peekLine())
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
			p.next()
		case strings.HasPrefix(line, "declare"):
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case strings.HasPrefix(line, "define"):
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			m.Funcs = append(m.Funcs, f)
		default:
			return nil, p.errf("expected 'define' or 'declare', got %q", line)
		}
	}
	return m, nil
}

// ParseFunc parses a single function definition.
func ParseFunc(src string) (*Function, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) != 1 {
		return nil, &ParseError{Line: 1, msg: fmt.Sprintf("expected exactly one function, found %d", len(m.Funcs))}
	}
	return m.Funcs[0], nil
}

type parser struct {
	lines []string
	pos   int
	tk    tok // the one line being tokenized
}

func (p *parser) eof() bool        { return p.pos >= len(p.lines) }
func (p *parser) peekLine() string { return p.lines[p.pos] }
func (p *parser) next() string     { l := p.lines[p.pos]; p.pos++; return l }

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.pos + 1, msg: fmt.Sprintf(format, args...)}
}

// pendingRef is a placeholder for a forward-referenced local value.
type pendingRef struct {
	name string
	ty   Type
}

func (r *pendingRef) Type() Type { return r.ty }

func (p *parser) parseDecl() (*Declaration, error) {
	tk := p.tk.lex(p.next())
	tk.eat("declare")
	retTy, ok := tk.typ()
	if !ok {
		return nil, p.errf("declare: bad return type")
	}
	name, ok := tk.global()
	if !ok {
		return nil, p.errf("declare: expected @name")
	}
	if !tk.eat("(") {
		return nil, p.errf("declare: expected (")
	}
	d := &Declaration{NameStr: name, RetTy: retTy}
	for !tk.eat(")") {
		pt, ok := tk.typ()
		if !ok {
			return nil, p.errf("declare: bad parameter type")
		}
		// Skip attributes and optional names.
		for tk.eatAnyIdent("noundef", "readnone") {
		}
		tk.local()
		d.ParamTys = append(d.ParamTys, pt)
		if !tk.eat(",") && tk.peek() != ")" {
			return nil, p.errf("declare: expected , or )")
		}
	}
	if tk.eatAnyIdent("readnone") {
		d.readNone = true
	}
	return d, nil
}

func (p *parser) parseFunc() (*Function, error) {
	header := p.next()
	headerLine := p.pos
	tk := p.tk.lex(header)
	tk.eat("define")
	// Skip linkage/visibility attributes clang commonly emits.
	for tk.eatAnyIdent("dso_local", "internal", "private", "hidden", "local_unnamed_addr") {
	}
	retTy, ok := tk.typ()
	if !ok {
		return nil, &ParseError{Line: headerLine, msg: "define: bad return type"}
	}
	name, ok := tk.global()
	if !ok {
		return nil, &ParseError{Line: headerLine, msg: "define: expected @name"}
	}
	if !tk.eat("(") {
		return nil, &ParseError{Line: headerLine, msg: "define: expected ("}
	}
	f := &Function{NameStr: name, RetTy: retTy}
	// The value table is made once the body has been counted; until
	// then the parameter names alone, in a set that stays on the stack
	// at the usual handful.
	paramNames := map[string]struct{}{}
	for !tk.eat(")") {
		pt, ok := tk.typ()
		if !ok {
			return nil, &ParseError{Line: headerLine, msg: "define: bad parameter type"}
		}
		pr := &Param{Ty: pt}
		for {
			if tk.eatAnyIdent("noundef") {
				pr.Noundef = true
				continue
			}
			if tk.eatAnyIdent("signext", "zeroext", "nocapture", "readonly") {
				continue
			}
			break
		}
		pn, ok := tk.local()
		if !ok {
			return nil, &ParseError{Line: headerLine, msg: "define: expected parameter name"}
		}
		pr.NameStr = pn
		if _, dup := paramNames[pn]; dup {
			return nil, &ParseError{Line: headerLine, msg: "duplicate parameter %" + pn}
		}
		paramNames[pn] = struct{}{}
		f.Params = append(f.Params, pr)
		if !tk.eat(",") && tk.peek() != ")" {
			return nil, &ParseError{Line: headerLine, msg: "define: expected , or )"}
		}
	}
	// Attribute-group reference and anything else before the brace.
	rest := strings.TrimSpace(tk.rest())
	if strings.HasSuffix(rest, "{") {
		f.Attrs = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	} else {
		return nil, &ParseError{Line: headerLine, msg: "define: expected {"}
	}

	// Body: find the blocks, as ranges of p.lines. Instructions are parsed
	// once every label is known: branches and phis name later blocks.
	// This pass also counts what the next one builds, so that it can take
	// every block and instruction from a slab of exactly that size.
	type rawBlock struct {
		name       string
		start, end int // p.lines[start:end]: instructions, blanks, comments
		n          int // instructions among them
	}
	var rawBuf [8]rawBlock
	raws, total := rawBuf[:0], 0
	cur := rawBlock{name: "entry-implicit", start: p.pos}
	closed := false
	for !p.eof() {
		line := strings.TrimSpace(p.next())
		if line == "}" {
			closed = true
			break
		}
		if line == "" || line[0] == ';' {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, "=") && !strings.Contains(line, " ") {
			label := strings.TrimSuffix(line, ":")
			if cur.n > 0 || len(raws) > 0 {
				cur.end = p.pos - 1
				raws = append(raws, cur)
			}
			cur = rawBlock{name: label, start: p.pos}
			continue
		}
		cur.n++
		total++
	}
	if !closed {
		return nil, &ParseError{Line: p.pos, msg: "unterminated function body (missing })"}
	}
	cur.end = p.pos - 1
	raws = append(raws, cur)
	if len(raws) == 1 && raws[0].name == "entry-implicit" {
		raws[0].name = "entry"
	}

	// The function's memory: one Block and one Instr per block and
	// instruction found, and each block's Instrs a window of one pointer
	// slab, its capacity capped at the block's count — an append by a
	// later pass reallocates instead of writing into the next block's
	// window. None of the three is ever grown, so *Block and *Instr are
	// stable. Operands, successors, phi incomings and constants, whose
	// numbers the first pass does not know, come from the instruction
	// parser's chunks. Everything is garbage once the function is: the
	// parser keeps nothing.
	blocks := make(map[string]*Block, len(raws))
	blockSlab, instrPtrs := make([]Block, len(raws)), make([]*Instr, total)
	f.Blocks = make([]*Block, len(raws))
	for i, rb := range raws {
		if _, dup := blocks[rb.name]; dup {
			return nil, &ParseError{Line: headerLine, msg: "duplicate block label " + rb.name}
		}
		b := &blockSlab[i]
		*b = Block{NameStr: rb.name, Parent: f, Instrs: carve(&instrPtrs, rb.n)[:0]}
		blocks[rb.name] = b
		f.Blocks[i] = b
	}
	names := make(map[string]Value, len(f.Params)+total)
	for _, pr := range f.Params {
		names[pr.NameStr] = pr
	}

	// Parse instructions; operands may forward-reference values.
	ip := &instrParser{
		names: names, blocks: blocks, tk: &p.tk, instrs: make([]Instr, 0, total),
		vals: chunk[Value]{size: 2 * total}, consts: chunk[Const]{size: total},
		succs: chunk[*Block]{size: 2 * len(raws)}, incs: chunk[Incoming]{size: 4 * len(raws)},
	}
	for bi, rb := range raws {
		b := f.Blocks[bi]
		for li := rb.start; li < rb.end; li++ {
			line := strings.TrimSpace(p.lines[li])
			if line == "" || line[0] == ';' {
				continue
			}
			in, err := ip.parseInstr(line, li+1)
			if err != nil {
				return nil, err
			}
			if in.HasResult() {
				if _, dup := names[in.NameStr]; dup {
					return nil, &ParseError{Line: li + 1, msg: "redefinition of %" + in.NameStr}
				}
				names[in.NameStr] = in
			}
			b.appendInstr(in)
		}
	}

	// Resolve forward references.
	resolve := func(v Value, lno int) (Value, error) {
		pr, ok := v.(*pendingRef)
		if !ok {
			return v, nil
		}
		rv, ok := names[pr.name]
		if !ok {
			return nil, &ParseError{Line: lno, msg: "use of undefined value %" + pr.name}
		}
		if pr.ty != nil && !rv.Type().Equal(pr.ty) {
			return nil, &ParseError{Line: lno, msg: fmt.Sprintf("type mismatch for %%%s: declared %s, defined %s", pr.name, pr.ty, rv.Type())}
		}
		return rv, nil
	}
	var rerr error
	f.ForEachInstr(func(b *Block, in *Instr) {
		if rerr != nil {
			return
		}
		for i, a := range in.Args {
			v, err := resolve(a, 0)
			if err != nil {
				rerr = err
				return
			}
			in.Args[i] = v
		}
		for i := range in.Incs {
			v, err := resolve(in.Incs[i].Val, 0)
			if err != nil {
				rerr = err
				return
			}
			in.Incs[i].Val = v
		}
	})
	if rerr != nil {
		return nil, rerr
	}
	return f, nil
}

// instrParser parses individual instruction lines.
type instrParser struct {
	names  map[string]Value
	blocks map[string]*Block
	tk     *tok
	// instrs has room for exactly the instructions the function holds.
	instrs []Instr
	vals   chunk[Value]
	succs  chunk[*Block]
	incs   chunk[Incoming]
	consts chunk[Const]
}

// instr moves in to the next slot of the function's instruction slab,
// which has one per instruction line: it is never grown (the reslice
// would panic first), so the pointer stays good.
func (ip *instrParser) instr(in Instr) *Instr {
	ip.instrs = ip.instrs[:len(ip.instrs)+1]
	p := &ip.instrs[len(ip.instrs)-1]
	*p = in
	return p
}

// konst returns the constant val of type ty, truncated to its width: a
// window of one in the constant chunk.
func (ip *instrParser) konst(ty IntType, val uint64) *Const {
	return &ip.consts.of(Const{Ty: ty, Val: val & ty.Mask()})[0]
}

// chunk hands out windows of one backing array to lists whose lengths
// the first pass does not know (operands, successors, phi incomings),
// in place of an allocation each. One window is open at a time: push
// extends it, take closes it.
type chunk[T any] struct {
	buf  []T
	open int // where the open window begins
	size int // elements in a fresh array
}

// push appends v to the open window. A full array is replaced, never
// grown — the windows taken from it stay where they are — and the open
// window moves to the new one.
func (c *chunk[T]) push(v T) {
	if len(c.buf) == cap(c.buf) {
		w := c.buf[c.open:]
		c.buf, c.open = append(make([]T, 0, max(c.size, 2*len(w)+1)), w...), 0
	}
	c.buf = append(c.buf, v)
}

// take closes the open window and returns it, nil when empty, with its
// capacity capped at its length: an append to one instruction's
// operands by a later pass reallocates instead of writing into its
// neighbour's (the rule bv.Term.Kids follows).
func (c *chunk[T]) take() []T {
	w := c.buf[c.open:len(c.buf):len(c.buf)]
	c.open = len(c.buf)
	if len(w) == 0 {
		return nil
	}
	return w
}

// of returns vs as one window.
func (c *chunk[T]) of(vs ...T) []T {
	for _, v := range vs {
		c.push(v)
	}
	return c.take()
}

// arithOps maps the mnemonics of the binary and cast opcodes.
var arithOps = map[string]Opcode{
	"add": OpAdd, "sub": OpSub, "mul": OpMul,
	"udiv": OpUDiv, "sdiv": OpSDiv, "urem": OpURem, "srem": OpSRem,
	"and": OpAnd, "or": OpOr, "xor": OpXor,
	"shl": OpShl, "lshr": OpLShr, "ashr": OpAShr,
	"zext": OpZExt, "sext": OpSExt, "trunc": OpTrunc,
}

func (ip *instrParser) value(tk *tok, ty Type, lno int) (Value, error) {
	if n, ok := tk.local(); ok {
		if v, ok := ip.names[n]; ok {
			if ty != nil && !v.Type().Equal(ty) {
				return nil, &ParseError{Line: lno, msg: fmt.Sprintf("operand %%%s has type %s, expected %s", n, v.Type(), ty)}
			}
			return v, nil
		}
		return &pendingRef{name: n, ty: ty}, nil
	}
	if g, ok := tk.global(); ok {
		return &GlobalRef{NameStr: g, ty: ptrTy}, nil
	}
	w := tk.peek()
	switch w {
	case "true", "false":
		tk.eat(w)
		it, ok := ty.(IntType)
		if !ok || it.Bits != 1 {
			return nil, &ParseError{Line: lno, msg: w + " constant requires type i1"}
		}
		v := uint64(0)
		if w == "true" {
			v = 1
		}
		return ip.konst(I1, v), nil
	case "undef":
		tk.eat(w)
		return &Undef{Ty: ty}, nil
	case "poison":
		tk.eat(w)
		return &Poison{Ty: ty}, nil
	}
	if iv, err := strconv.ParseInt(w, 10, 64); err == nil {
		tk.eat(w)
		it, ok := ty.(IntType)
		if !ok {
			return nil, &ParseError{Line: lno, msg: fmt.Sprintf("integer constant %s requires an integer type, got %v", w, ty)}
		}
		return ip.konst(it, uint64(iv)), nil
	}
	// Unsigned values above MaxInt64 (rare but legal for i64).
	if uv, err := strconv.ParseUint(w, 10, 64); err == nil {
		tk.eat(w)
		it, ok := ty.(IntType)
		if !ok {
			return nil, &ParseError{Line: lno, msg: fmt.Sprintf("integer constant %s requires an integer type", w)}
		}
		return ip.konst(it, uv), nil
	}
	return nil, &ParseError{Line: lno, msg: fmt.Sprintf("expected value, got %q", w)}
}

// typedValue parses "<ty> <val>".
func (ip *instrParser) typedValue(tk *tok, lno int) (Value, error) {
	ty, ok := tk.typ()
	if !ok {
		return nil, &ParseError{Line: lno, msg: fmt.Sprintf("expected type, got %q", tk.peek())}
	}
	for tk.eatAnyIdent("noundef") {
	}
	return ip.value(tk, ty, lno)
}

func (ip *instrParser) label(tk *tok, lno int) (*Block, error) {
	if !tk.eatAnyIdent("label") {
		return nil, &ParseError{Line: lno, msg: "expected 'label'"}
	}
	n, ok := tk.local()
	if !ok {
		return nil, &ParseError{Line: lno, msg: "expected %label name"}
	}
	b, ok := ip.blocks[n]
	if !ok {
		return nil, &ParseError{Line: lno, msg: "branch to undefined label %" + n}
	}
	return b, nil
}

func (ip *instrParser) parseInstr(line string, lno int) (*Instr, error) {
	tk := ip.tk.lex(line)
	name := ""
	if n, ok := tk.local(); ok {
		name = n
		if !tk.eat("=") {
			return nil, &ParseError{Line: lno, msg: "expected = after result name"}
		}
	}
	op := tk.ident()
	fail := func(format string, args ...interface{}) (*Instr, error) {
		return nil, &ParseError{Line: lno, msg: fmt.Sprintf(format, args...)}
	}
	// define finishes an instruction that yields a value.
	define := func(in *Instr) (*Instr, error) {
		if name == "" {
			return fail("%s: missing result name", op)
		}
		in.NameStr = name
		return in, nil
	}
	if bop := arithOps[op]; bop.IsBinary() {
		var fl Flags
		for {
			if tk.eatAnyIdent("nsw") {
				fl.NSW = true
				continue
			}
			if tk.eatAnyIdent("nuw") {
				fl.NUW = true
				continue
			}
			if tk.eatAnyIdent("exact") {
				fl.Exact = true
				continue
			}
			break
		}
		ty, ok := tk.typ()
		if !ok {
			return fail("%s: expected type", op)
		}
		if _, isInt := ty.(IntType); !isInt {
			return fail("%s: requires integer type, got %s", op, ty)
		}
		x, err := ip.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("%s: expected ,", op)
		}
		y, err := ip.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		return define(ip.instr(Instr{Op: bop, Ty: ty, Args: ip.vals.of(x, y), Flags: fl}))
	}
	switch op {
	case "icmp":
		ps := tk.ident()
		pred, ok := predFromString(ps)
		if !ok {
			return fail("icmp: unknown predicate %q", ps)
		}
		ty, ok := tk.typ()
		if !ok {
			return fail("icmp: expected type")
		}
		x, err := ip.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("icmp: expected ,")
		}
		y, err := ip.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		return define(ip.instr(Instr{Op: OpICmp, Pred: pred, Ty: I1, Args: ip.vals.of(x, y)}))
	case "select":
		c, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if it, ok := c.Type().(IntType); !ok || it.Bits != 1 {
			return fail("select: condition must be i1, got %s", c.Type())
		}
		if !tk.eat(",") {
			return fail("select: expected ,")
		}
		t, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("select: expected ,")
		}
		fv, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !t.Type().Equal(fv.Type()) {
			return fail("select: arm types differ: %s vs %s", t.Type(), fv.Type())
		}
		return define(ip.instr(Instr{Op: OpSelect, Ty: t.Type(), Args: ip.vals.of(c, t, fv)}))
	case "zext", "sext", "trunc":
		x, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eatAnyIdent("to") {
			return fail("%s: expected 'to'", op)
		}
		to, ok := tk.typ()
		if !ok {
			return fail("%s: expected destination type", op)
		}
		from, ok1 := x.Type().(IntType)
		toI, ok2 := to.(IntType)
		if !ok1 || !ok2 {
			return fail("%s: requires integer types", op)
		}
		if op == "trunc" && toI.Bits >= from.Bits {
			return fail("trunc: destination i%d not narrower than source i%d", toI.Bits, from.Bits)
		}
		if op != "trunc" && toI.Bits <= from.Bits {
			return fail("%s: destination i%d not wider than source i%d", op, toI.Bits, from.Bits)
		}
		return define(ip.instr(Instr{Op: arithOps[op], Ty: to, Args: ip.vals.of(x)}))
	case "freeze":
		x, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		return define(ip.instr(Instr{Op: OpFreeze, Ty: x.Type(), Args: ip.vals.of(x)}))
	case "alloca":
		ty, ok := tk.typ()
		if !ok {
			return fail("alloca: expected type")
		}
		// Optional alignment: ", align N"
		if tk.eat(",") {
			if !tk.eatAnyIdent("align") {
				return fail("alloca: expected align")
			}
			tk.ident()
		}
		return define(ip.instr(Instr{Op: OpAlloca, Ty: ptrTy, AllocTy: ty}))
	case "load":
		ty, ok := tk.typ()
		if !ok {
			return fail("load: expected type")
		}
		if !tk.eat(",") {
			return fail("load: expected ,")
		}
		ptr, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !ptr.Type().Equal(ptrTy) {
			return fail("load: pointer operand has type %s", ptr.Type())
		}
		if tk.eat(",") {
			if !tk.eatAnyIdent("align") {
				return fail("load: expected align")
			}
			tk.ident()
		}
		return define(ip.instr(Instr{Op: OpLoad, Ty: ty, Args: ip.vals.of(ptr)}))
	case "store":
		v, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("store: expected ,")
		}
		ptr, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !ptr.Type().Equal(ptrTy) {
			return fail("store: pointer operand has type %s", ptr.Type())
		}
		if tk.eat(",") {
			if !tk.eatAnyIdent("align") {
				return fail("store: expected align")
			}
			tk.ident()
		}
		if name != "" {
			return fail("store: must not have a result")
		}
		return ip.instr(Instr{Op: OpStore, Ty: Void, Args: ip.vals.of(v, ptr)}), nil
	case "call":
		retTy, ok := tk.typ()
		if !ok {
			return fail("call: expected return type")
		}
		callee, ok := tk.global()
		if !ok {
			return fail("call: expected @callee")
		}
		if !tk.eat("(") {
			return fail("call: expected (")
		}
		for !tk.eat(")") {
			a, err := ip.typedValue(tk, lno)
			if err != nil {
				return nil, err
			}
			ip.vals.push(a)
			if !tk.eat(",") && tk.peek() != ")" {
				return fail("call: expected , or )")
			}
		}
		tk.eatAnyIdent("readnone")
		if _, isVoid := retTy.(VoidType); !isVoid && name == "" {
			return fail("call: non-void call needs a result name")
		}
		if _, isVoid := retTy.(VoidType); isVoid && name != "" {
			return fail("call: void call must not have a result")
		}
		return ip.instr(Instr{Op: OpCall, NameStr: name, Ty: retTy, Callee: callee, Args: ip.vals.take()}), nil
	case "phi":
		ty, ok := tk.typ()
		if !ok {
			return fail("phi: expected type")
		}
		for {
			if !tk.eat("[") {
				return fail("phi: expected [")
			}
			v, err := ip.value(tk, ty, lno)
			if err != nil {
				return nil, err
			}
			if !tk.eat(",") {
				return fail("phi: expected ,")
			}
			bn, ok := tk.local()
			if !ok {
				return fail("phi: expected %block")
			}
			blk, ok := ip.blocks[bn]
			if !ok {
				return fail("phi: incoming from undefined block %%%s", bn)
			}
			if !tk.eat("]") {
				return fail("phi: expected ]")
			}
			ip.incs.push(Incoming{Val: v, Block: blk})
			if !tk.eat(",") {
				break
			}
		}
		return define(ip.instr(Instr{Op: OpPhi, Ty: ty, Incs: ip.incs.take()}))
	case "ret":
		if name != "" {
			return fail("ret: must not have a result")
		}
		if tk.eatAnyIdent("void") {
			return ip.instr(Instr{Op: OpRet, Ty: Void}), nil
		}
		v, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		return ip.instr(Instr{Op: OpRet, Ty: Void, Args: ip.vals.of(v)}), nil
	case "br":
		if name != "" {
			return fail("br: must not have a result")
		}
		if tk.peek() == "label" {
			dst, err := ip.label(tk, lno)
			if err != nil {
				return nil, err
			}
			return ip.instr(Instr{Op: OpBr, Ty: Void, Succs: ip.succs.of(dst)}), nil
		}
		c, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if it, ok := c.Type().(IntType); !ok || it.Bits != 1 {
			return fail("br: condition must be i1")
		}
		if !tk.eat(",") {
			return fail("br: expected ,")
		}
		t, err := ip.label(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("br: expected ,")
		}
		f, err := ip.label(tk, lno)
		if err != nil {
			return nil, err
		}
		return ip.instr(Instr{Op: OpCondBr, Ty: Void, Args: ip.vals.of(c), Succs: ip.succs.of(t, f)}), nil
	case "switch":
		if name != "" {
			return fail("switch: must not have a result")
		}
		v, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		it, isInt := v.Type().(IntType)
		if !isInt {
			return fail("switch: value must be an integer")
		}
		if !tk.eat(",") {
			return fail("switch: expected ,")
		}
		def, err := ip.label(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat("[") {
			return fail("switch: expected [")
		}
		var cases []*Const
		ip.succs.push(def)
		for !tk.eat("]") {
			cty, ok := tk.typ()
			if !ok {
				return fail("switch: expected case type")
			}
			if !cty.Equal(it) {
				return fail("switch: case type %s != value type %s", cty, it)
			}
			cv, err := ip.value(tk, it, lno)
			if err != nil {
				return nil, err
			}
			cc, isC := cv.(*Const)
			if !isC {
				return fail("switch: case value must be a constant")
			}
			if !tk.eat(",") {
				return fail("switch: expected , after case value")
			}
			dst, err := ip.label(tk, lno)
			if err != nil {
				return nil, err
			}
			cases = append(cases, cc)
			ip.succs.push(dst)
		}
		return ip.instr(Instr{Op: OpSwitch, Ty: Void, Args: ip.vals.of(v), Succs: ip.succs.take(), Cases: cases}), nil
	case "unreachable":
		if name != "" {
			return fail("unreachable: must not have a result")
		}
		return ip.instr(Instr{Op: OpUnreachable, Ty: Void}), nil
	case "":
		return fail("empty instruction")
	}
	return fail("unknown instruction %q", op)
}
