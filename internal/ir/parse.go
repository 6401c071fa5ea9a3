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
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// Parse parses a module (declarations and function definitions) from
// LLVM-like textual IR. It must be valid UTF-8: names are substrings of
// src, and a cache key holding invalid bytes would not survive JSON.
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n"), tk: tok{words: make([]string, 0, 32)}}
	for i, line := range p.lines {
		if !utf8.ValidString(line) {
			return nil, &ParseError{Line: i + 1, Msg: "invalid UTF-8"}
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
		return nil, &ParseError{Line: 1, Msg: fmt.Sprintf("expected exactly one function, found %d", len(m.Funcs))}
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
	return &ParseError{Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
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
		d.ReadNone = true
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
		return nil, &ParseError{Line: headerLine, Msg: "define: bad return type"}
	}
	name, ok := tk.global()
	if !ok {
		return nil, &ParseError{Line: headerLine, Msg: "define: expected @name"}
	}
	if !tk.eat("(") {
		return nil, &ParseError{Line: headerLine, Msg: "define: expected ("}
	}
	f := &Function{NameStr: name, RetTy: retTy}
	names := map[string]Value{}
	for !tk.eat(")") {
		pt, ok := tk.typ()
		if !ok {
			return nil, &ParseError{Line: headerLine, Msg: "define: bad parameter type"}
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
			return nil, &ParseError{Line: headerLine, Msg: "define: expected parameter name"}
		}
		pr.NameStr = pn
		if _, dup := names[pn]; dup {
			return nil, &ParseError{Line: headerLine, Msg: "duplicate parameter %" + pn}
		}
		names[pn] = pr
		f.Params = append(f.Params, pr)
		if !tk.eat(",") && tk.peek() != ")" {
			return nil, &ParseError{Line: headerLine, Msg: "define: expected , or )"}
		}
	}
	// Attribute-group reference and anything else before the brace.
	rest := strings.TrimSpace(tk.rest())
	if strings.HasSuffix(rest, "{") {
		f.Attrs = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	} else {
		return nil, &ParseError{Line: headerLine, Msg: "define: expected {"}
	}

	// Body: find the blocks, as ranges of p.lines. Instructions are parsed
	// once every label is known: branches and phis name later blocks.
	type rawBlock struct {
		name       string
		start, end int // p.lines[start:end]: instructions, blanks, comments
		n          int // instructions among them
	}
	var raws []rawBlock
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
	}
	if !closed {
		return nil, &ParseError{Line: p.pos, Msg: "unterminated function body (missing })"}
	}
	cur.end = p.pos - 1
	raws = append(raws, cur)
	if len(raws) == 1 && raws[0].name == "entry-implicit" {
		raws[0].name = "entry"
	}

	blocks := make(map[string]*Block, len(raws))
	f.Blocks = make([]*Block, 0, len(raws))
	for _, rb := range raws {
		if _, dup := blocks[rb.name]; dup {
			return nil, &ParseError{Line: headerLine, Msg: "duplicate block label " + rb.name}
		}
		b := &Block{NameStr: rb.name, Parent: f, Instrs: make([]*Instr, 0, rb.n)}
		blocks[rb.name] = b
		f.Blocks = append(f.Blocks, b)
	}

	// Parse instructions; operands may forward-reference values.
	ip := &instrParser{names: names, blocks: blocks, tk: &p.tk}
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
					return nil, &ParseError{Line: li + 1, Msg: "redefinition of %" + in.NameStr}
				}
				names[in.NameStr] = in
			}
			b.Append(in)
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
			return nil, &ParseError{Line: lno, Msg: "use of undefined value %" + pr.name}
		}
		if pr.ty != nil && !rv.Type().Equal(pr.ty) {
			return nil, &ParseError{Line: lno, Msg: fmt.Sprintf("type mismatch for %%%s: declared %s, defined %s", pr.name, pr.ty, rv.Type())}
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
				return nil, &ParseError{Line: lno, Msg: fmt.Sprintf("operand %%%s has type %s, expected %s", n, v.Type(), ty)}
			}
			return v, nil
		}
		return &pendingRef{name: n, ty: ty}, nil
	}
	if g, ok := tk.global(); ok {
		return &GlobalRef{NameStr: g, Ty: Ptr}, nil
	}
	w := tk.peek()
	switch w {
	case "true", "false":
		tk.eat(w)
		it, ok := ty.(IntType)
		if !ok || it.Bits != 1 {
			return nil, &ParseError{Line: lno, Msg: w + " constant requires type i1"}
		}
		v := uint64(0)
		if w == "true" {
			v = 1
		}
		return &Const{Ty: I1, Val: v}, nil
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
			return nil, &ParseError{Line: lno, Msg: fmt.Sprintf("integer constant %s requires an integer type, got %v", w, ty)}
		}
		return NewConst(it, iv), nil
	}
	// Unsigned values above MaxInt64 (rare but legal for i64).
	if uv, err := strconv.ParseUint(w, 10, 64); err == nil {
		tk.eat(w)
		it, ok := ty.(IntType)
		if !ok {
			return nil, &ParseError{Line: lno, Msg: fmt.Sprintf("integer constant %s requires an integer type", w)}
		}
		return &Const{Ty: it, Val: uv & it.Mask()}, nil
	}
	return nil, &ParseError{Line: lno, Msg: fmt.Sprintf("expected value, got %q", w)}
}

// typedValue parses "<ty> <val>".
func (ip *instrParser) typedValue(tk *tok, lno int) (Value, error) {
	ty, ok := tk.typ()
	if !ok {
		return nil, &ParseError{Line: lno, Msg: fmt.Sprintf("expected type, got %q", tk.peek())}
	}
	for tk.eatAnyIdent("noundef") {
	}
	return ip.value(tk, ty, lno)
}

func (ip *instrParser) label(tk *tok, lno int) (*Block, error) {
	if !tk.eatAnyIdent("label") {
		return nil, &ParseError{Line: lno, Msg: "expected 'label'"}
	}
	n, ok := tk.local()
	if !ok {
		return nil, &ParseError{Line: lno, Msg: "expected %label name"}
	}
	b, ok := ip.blocks[n]
	if !ok {
		return nil, &ParseError{Line: lno, Msg: "branch to undefined label %" + n}
	}
	return b, nil
}

func (ip *instrParser) parseInstr(line string, lno int) (*Instr, error) {
	tk := ip.tk.lex(line)
	name := ""
	if n, ok := tk.local(); ok {
		name = n
		if !tk.eat("=") {
			return nil, &ParseError{Line: lno, Msg: "expected = after result name"}
		}
	}
	op := tk.ident()
	fail := func(format string, args ...interface{}) (*Instr, error) {
		return nil, &ParseError{Line: lno, Msg: fmt.Sprintf(format, args...)}
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
		return define(&Instr{Op: bop, Ty: ty, Args: []Value{x, y}, Flags: fl})
	}
	switch op {
	case "icmp":
		ps := tk.ident()
		pred, ok := PredFromString(ps)
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
		return define(&Instr{Op: OpICmp, Pred: pred, Ty: I1, Args: []Value{x, y}})
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
		return define(&Instr{Op: OpSelect, Ty: t.Type(), Args: []Value{c, t, fv}})
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
		return define(&Instr{Op: arithOps[op], Ty: to, Args: []Value{x}})
	case "freeze":
		x, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		return define(&Instr{Op: OpFreeze, Ty: x.Type(), Args: []Value{x}})
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
		return define(&Instr{Op: OpAlloca, Ty: Ptr, AllocTy: ty})
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
		if !ptr.Type().Equal(Ptr) {
			return fail("load: pointer operand has type %s", ptr.Type())
		}
		if tk.eat(",") {
			if !tk.eatAnyIdent("align") {
				return fail("load: expected align")
			}
			tk.ident()
		}
		return define(&Instr{Op: OpLoad, Ty: ty, Args: []Value{ptr}})
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
		if !ptr.Type().Equal(Ptr) {
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
		return &Instr{Op: OpStore, Ty: Void, Args: []Value{v, ptr}}, nil
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
		var args []Value
		for !tk.eat(")") {
			a, err := ip.typedValue(tk, lno)
			if err != nil {
				return nil, err
			}
			args = append(args, a)
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
		return &Instr{Op: OpCall, NameStr: name, Ty: retTy, Callee: callee, Args: args}, nil
	case "phi":
		ty, ok := tk.typ()
		if !ok {
			return fail("phi: expected type")
		}
		var incs []Incoming
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
			incs = append(incs, Incoming{Val: v, Block: blk})
			if !tk.eat(",") {
				break
			}
		}
		return define(&Instr{Op: OpPhi, Ty: ty, Incs: incs})
	case "ret":
		if name != "" {
			return fail("ret: must not have a result")
		}
		if tk.eatAnyIdent("void") {
			return &Instr{Op: OpRet, Ty: Void}, nil
		}
		v, err := ip.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpRet, Ty: Void, Args: []Value{v}}, nil
	case "br":
		if name != "" {
			return fail("br: must not have a result")
		}
		if tk.peek() == "label" {
			dst, err := ip.label(tk, lno)
			if err != nil {
				return nil, err
			}
			return &Instr{Op: OpBr, Ty: Void, Succs: []*Block{dst}}, nil
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
		return &Instr{Op: OpCondBr, Ty: Void, Args: []Value{c}, Succs: []*Block{t, f}}, nil
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
		in := &Instr{Op: OpSwitch, Ty: Void, Args: []Value{v}, Succs: []*Block{def}}
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
			in.Cases = append(in.Cases, cc)
			in.Succs = append(in.Succs, dst)
		}
		return in, nil
	case "unreachable":
		if name != "" {
			return fail("unreachable: must not have a result")
		}
		return &Instr{Op: OpUnreachable, Ty: Void}, nil
	case "":
		return fail("empty instruction")
	}
	return fail("unknown instruction %q", op)
}
