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
	var p parser
	if err := p.start(src); err != nil {
		return nil, err
	}
	m := &Module{} // the functions share the chunks of p's zero Copier
	for {
		d, f, err := p.unit()
		switch {
		case err != nil:
			return nil, err
		case d != nil:
			m.Decls = append(m.Decls, d)
		case f != nil:
			m.Funcs = append(m.Funcs, f)
		default:
			return m, nil
		}
	}
}

// ParseFunc parses a single function definition; declarations beside
// it are checked and dropped. It is a zero Copier's Parse: the function
// is in fresh memory, as CloneFunc's copy is.
func ParseFunc(src string) (*Function, error) {
	var c Copier
	return c.Parse(src)
}

// Parse parses a single function definition as ParseFunc does, into
// c's memory (Clone's rule). It allocates what the function keeps and
// little else: no Module, no slice of lines, and a parser, with its
// token buffer and name table, on the caller's stack. The parser carves
// from a copy of c that only a parse that succeeds hands back: one that
// fails hands nothing out and leaves c as it was, fill and marks.
func (c *Copier) Parse(src string) (*Function, error) {
	var p parser
	if err := p.start(src); err != nil {
		return nil, err
	}
	p.c = *c
	var f *Function
	n := 0
	for {
		d, g, err := p.unit()
		if err != nil {
			return nil, err
		}
		if d == nil && g == nil {
			break
		}
		if g != nil {
			if n == 0 {
				f = g
			}
			n++
		}
	}
	if n != 1 {
		return nil, &ParseError{Line: 1, msg: fmt.Sprintf("expected exactly one function, found %d", n)}
	}
	*c = p.c
	return f, nil
}

// parser reads src a line at a time, in place, and builds one function
// at a time straight into that function's memory, carved from its copy
// of a Copier. Nothing in it points into it or into the Copier, so that
// both can live on their callers' stacks.
type parser struct {
	src string
	off int // byte offset of the next unread line; past len(src) at the end
	pos int // index of the next unread line
	tk  tok // the one line being tokenized

	// The function being built. params and instrs are its parameter and
	// instruction windows, filled in order: a value's position is its
	// parameter index, or len(params) plus its index in instrs.
	params []*Param
	instrs []Instr
	blocks []*Block
	// names finds a value or a block by its name: a value's position,
	// below base, or base plus a block's index.
	names table
	base  int32
	c     Copier
	// pend names each forward reference, and the line that made it, in
	// the order the instructions' operands hold them; the first 16 are
	// in the array.
	pend     [16]fwdRef
	pendMore []fwdRef
	npend    int
}

// fwdRef is a forward reference's name and the line it was made on.
type fwdRef struct {
	name string
	line int
}

// start points p at src, which it checks is valid UTF-8 line by line.
func (p *parser) start(src string) error {
	p.src = src
	if utf8.ValidString(src) {
		return nil
	}
	for {
		if !utf8.ValidString(p.next()) {
			return &ParseError{Line: p.pos, msg: "invalid UTF-8"}
		}
	}
}

func (p *parser) eof() bool { return p.off > len(p.src) }

// peekLine returns the next unread line, without its newline.
func (p *parser) peekLine() string { return p.lineAt(p.off) }

// lineAt returns the line that begins at byte off of src.
func (p *parser) lineAt(off int) string {
	rest := p.src[off:]
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		return rest[:i]
	}
	return rest
}

func (p *parser) next() string {
	l := p.peekLine()
	p.off += len(l) + 1
	p.pos++
	return l
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.pos + 1, msg: fmt.Sprintf(format, args...)}
}

// unit parses the next declaration or definition, past blank and
// comment lines; both are nil at the end of src.
func (p *parser) unit() (*Declaration, *Function, error) {
	for !p.eof() {
		line := strings.TrimSpace(p.peekLine())
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
			p.next()
		case strings.HasPrefix(line, "declare"):
			d, err := p.parseDecl()
			return d, nil, err
		case strings.HasPrefix(line, "define"):
			f, err := p.parseFunc()
			return nil, f, err
		default:
			return nil, nil, p.errf("expected 'define' or 'declare', got %q", line)
		}
	}
	return nil, nil, nil
}

// pendingRef stands in for a forward-referenced local value until the
// whole body is read: the width of the integer type the reference gave
// it, pendPtr or pendVoid, a byte, so that it is an operand without an
// allocation. Its name is in the parser's pend.
type pendingRef uint8

const pendPtr, pendVoid pendingRef = 0, 255

func (r pendingRef) Type() Type {
	switch r {
	case pendPtr:
		return ptrTy
	case pendVoid:
		return Void
	}
	return IntType{int(r)}
}

// pending makes a forward reference to name, of type ty, on line lno.
func (p *parser) pending(name string, ty Type, lno int) Value {
	if p.npend < len(p.pend) {
		p.pend[p.npend] = fwdRef{name, lno}
	} else {
		p.pendMore = append(p.pendMore, fwdRef{name, lno})
	}
	p.npend++
	if it, ok := ty.(IntType); ok {
		return pendingRef(it.Bits)
	}
	if ty.Equal(Void) {
		return pendVoid
	}
	return pendPtr
}

// pendingAt is the k-th forward reference.
func (p *parser) pendingAt(k int) fwdRef {
	if k < len(p.pend) {
		return p.pend[k]
	}
	return p.pendMore[k-len(p.pend)]
}

// at returns the parameter or instruction at pos.
func (p *parser) at(pos int32) Value {
	if int(pos) < len(p.params) {
		return p.params[pos]
	}
	return &p.instrs[int(pos)-len(p.params)]
}

// lookup returns the position of the value named name, or -1, and the
// slot of the table where it is or would go.
func (p *parser) lookup(name string) (int32, int) {
	return p.names.find(name, func(pos int32) bool {
		if pos >= p.base {
			return false
		}
		if int(pos) < len(p.params) {
			return p.params[pos].NameStr == name
		}
		return p.instrs[int(pos)-len(p.params)].NameStr == name
	})
}

// lookupBlock is lookup for the block labelled name, its index.
func (p *parser) lookupBlock(name string) (int32, int) {
	pos, slot := p.names.find(name, func(pos int32) bool { return pos >= p.base && p.blocks[pos-p.base].NameStr == name })
	if pos >= 0 {
		pos -= p.base
	}
	return pos, slot
}

// block returns the block labelled name, or nil.
func (p *parser) block(name string) *Block {
	if i, _ := p.lookupBlock(name); i >= 0 {
		return p.blocks[i]
	}
	return nil
}

func (p *parser) parseDecl() (*Declaration, error) {
	// The cursor leaves the line on return, so errf names this line.
	tk := p.tk.lex(p.peekLine())
	defer p.next()
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
	c := &p.c
	header := p.next()
	headerLine := p.pos

	// Body: find the blocks, as byte ranges of src, before the header is
	// read. Instructions are parsed once every label is known: branches
	// and phis name later blocks. This pass also counts what the next one
	// builds, so that it can take every block and instruction from a window
	// of exactly that size and size the name table once. Its error, an
	// unterminated body, waits for the header's.
	type rawBlock struct {
		name       string
		start, end int // src[start:end]: instructions, blanks, comments
		line       int // index of the line at start
		n          int // instructions among them
	}
	var rawBuf [8]rawBlock
	raws, total := rawBuf[:0], 0
	cur := rawBlock{name: "entry-implicit", start: p.off, line: p.pos}
	closed := false
	for !p.eof() {
		at := p.off
		// A line is classified without its comment: clang writes
		// "next:  ; preds = %entry" and the like.
		line := p.next()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "}" {
			closed = true
			cur.end = at
			break
		}
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, "=") && !strings.Contains(line, " ") {
			label := strings.TrimSuffix(line, ":")
			if cur.n > 0 || len(raws) > 0 {
				cur.end = at
				raws = append(raws, cur)
			}
			cur = rawBlock{name: label, start: p.off, line: p.pos}
			continue
		}
		cur.n++
		total++
	}

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
	c.mark(false)
	f := &c.fns.alloc(1)[0]
	*f = Function{NameStr: name, RetTy: retTy}
	// Every parameter's name is a token of the header beginning with
	// '%', so their number bounds the parameters: their windows, and the
	// table of names, are made before the first is read.
	bound := strings.Count(header, "%")
	p.base = int32(bound + total)
	p.names.reset(bound + total + len(raws) + 1)
	p.instrs, p.npend, p.pendMore = nil, 0, p.pendMore[:0]
	paramSlab := c.params.alloc(bound)
	p.params = c.paramPtrs.alloc(bound)[:0]
	for !tk.eat(")") {
		pt, ok := tk.typ()
		if !ok {
			return nil, &ParseError{Line: headerLine, msg: "define: bad parameter type"}
		}
		pr := Param{Ty: pt}
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
		pos, slot := p.lookup(pn)
		if pos >= 0 {
			return nil, &ParseError{Line: headerLine, msg: "duplicate parameter %" + pn}
		}
		p.names.put(slot, int32(len(p.params)))
		paramSlab[len(p.params)] = pr
		p.params = append(p.params, &paramSlab[len(p.params)])
		if !tk.eat(",") && tk.peek() != ")" {
			return nil, &ParseError{Line: headerLine, msg: "define: expected , or )"}
		}
	}
	if len(p.params) > 0 {
		f.Params = p.params[:len(p.params):len(p.params)]
	}
	c.params.giveBack(bound - len(p.params))
	c.paramPtrs.giveBack(bound - len(p.params))
	// Attribute-group reference and anything else before the brace.
	rest := strings.TrimSpace(tk.rest())
	if strings.HasSuffix(rest, "{") {
		f.Attrs = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	} else {
		return nil, &ParseError{Line: headerLine, msg: "define: expected {"}
	}
	if !closed {
		return nil, &ParseError{Line: p.pos, msg: "unterminated function body (missing })"}
	}
	raws = append(raws, cur)
	if len(raws) == 1 && raws[0].name == "entry-implicit" {
		raws[0].name = "entry"
	}

	// The function's memory: one Block and one Instr per block and
	// instruction found, and each block's Instrs a slice of one window of
	// pointers, its capacity capped at the block's count — an append by a
	// later pass reallocates instead of writing into the next block's
	// window. None of the three is ever grown, so *Block and *Instr are
	// stable. Operands, successors, phi incomings, cases and constants,
	// whose numbers the first pass does not know, are lists pushed into
	// c's arenas, the successors after the block list in a chunk with
	// room for two per block.
	n := len(raws)
	c.blockPtrs.room(3 * n)
	blockSlab, blockPtrs, instrPtrs := c.blocks.alloc(n), c.blockPtrs.alloc(n), c.instrPtrs.alloc(total)
	f.Blocks, p.blocks = blockPtrs, blockPtrs[:0]
	for i, rb := range raws {
		pos, slot := p.lookupBlock(rb.name)
		if pos >= 0 {
			return nil, &ParseError{Line: headerLine, msg: "duplicate block label " + rb.name}
		}
		b := &blockSlab[i]
		*b = Block{NameStr: rb.name, Parent: f, Instrs: carve(&instrPtrs, rb.n)[:0]}
		p.names.put(slot, p.base+int32(i))
		p.blocks = append(p.blocks, b)
	}

	// Parse instructions; operands may forward-reference values.
	p.instrs = c.instrs.alloc(total)[:0]
	c.vals.size, c.consts.size, c.incs.size, c.cases.size, c.blockPtrs.size = 2*total, total, 4*n, n, 2*n
	for bi, rb := range raws {
		b := f.Blocks[bi]
		for at, li := rb.start, rb.line; at < rb.end; li++ {
			line := p.lineAt(at)
			at += len(line) + 1
			line = strings.TrimSpace(line)
			if line == "" || line[0] == ';' {
				continue
			}
			in, err := p.parseInstr(line, li+1)
			if err != nil {
				return nil, err
			}
			if in.HasResult() {
				pos, slot := p.lookup(in.NameStr)
				if pos >= 0 {
					return nil, &ParseError{Line: li + 1, msg: "redefinition of %" + in.NameStr}
				}
				p.names.put(slot, int32(len(p.params)+len(p.instrs)-1))
			}
			b.appendInstr(in)
		}
	}

	// Resolve forward references, in the order they were made.
	if p.npend == 0 {
		return f, nil
	}
	k := 0
	resolve := func(v Value) (Value, error) {
		pr, ok := v.(pendingRef)
		if !ok {
			return v, nil
		}
		ref := p.pendingAt(k)
		k++
		pos, _ := p.lookup(ref.name)
		if pos < 0 {
			return nil, &ParseError{Line: ref.line, msg: "use of undefined value %" + ref.name}
		}
		rv := p.at(pos)
		if !rv.Type().Equal(pr.Type()) {
			return nil, &ParseError{Line: ref.line, msg: fmt.Sprintf("type mismatch for %%%s: declared %s, defined %s", ref.name, pr.Type(), rv.Type())}
		}
		return rv, nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				v, err := resolve(a)
				if err != nil {
					return nil, err
				}
				in.Args[i] = v
			}
			for i := range in.Incs {
				v, err := resolve(in.Incs[i].Val)
				if err != nil {
					return nil, err
				}
				in.Incs[i].Val = v
			}
		}
	}
	return f, nil
}

// instr moves in to the next slot of the function's instruction window,
// which has one per instruction line: it is never grown (the reslice
// would panic first), so the pointer stays good.
func (p *parser) instr(in Instr) *Instr {
	p.instrs = p.instrs[:len(p.instrs)+1]
	slot := &p.instrs[len(p.instrs)-1]
	*slot = in
	return slot
}

// konst returns the constant val of type ty, truncated to its width: a
// window of one in the constant list.
func (p *parser) konst(ty IntType, val uint64) *Const {
	return &p.c.consts.of(Const{Ty: ty, Val: val & ty.Mask()})[0]
}

// arithOps maps the mnemonics of the binary and cast opcodes.
var arithOps = map[string]Opcode{
	"add": OpAdd, "sub": OpSub, "mul": OpMul,
	"udiv": OpUDiv, "sdiv": OpSDiv, "urem": OpURem, "srem": OpSRem,
	"and": OpAnd, "or": OpOr, "xor": OpXor,
	"shl": OpShl, "lshr": OpLShr, "ashr": OpAShr,
	"zext": OpZExt, "sext": OpSExt, "trunc": OpTrunc,
}

func (p *parser) value(tk *tok, ty Type, lno int) (Value, error) {
	if n, ok := tk.local(); ok {
		if pos, _ := p.lookup(n); pos >= 0 {
			v := p.at(pos)
			if ty != nil && !v.Type().Equal(ty) {
				return nil, &ParseError{Line: lno, msg: fmt.Sprintf("operand %%%s has type %s, expected %s", n, v.Type(), ty)}
			}
			return v, nil
		}
		return p.pending(n, ty, lno), nil
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
		return p.konst(I1, v), nil
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
		return p.konst(it, uint64(iv)), nil
	}
	// Unsigned values above MaxInt64 (rare but legal for i64).
	if uv, err := strconv.ParseUint(w, 10, 64); err == nil {
		tk.eat(w)
		it, ok := ty.(IntType)
		if !ok {
			return nil, &ParseError{Line: lno, msg: fmt.Sprintf("integer constant %s requires an integer type", w)}
		}
		return p.konst(it, uv), nil
	}
	return nil, &ParseError{Line: lno, msg: fmt.Sprintf("expected value, got %q", w)}
}

// typedValue parses "<ty> <val>".
func (p *parser) typedValue(tk *tok, lno int) (Value, error) {
	ty, ok := tk.typ()
	if !ok {
		return nil, &ParseError{Line: lno, msg: fmt.Sprintf("expected type, got %q", tk.peek())}
	}
	for tk.eatAnyIdent("noundef") {
	}
	return p.value(tk, ty, lno)
}

func (p *parser) label(tk *tok, lno int) (*Block, error) {
	if !tk.eatAnyIdent("label") {
		return nil, &ParseError{Line: lno, msg: "expected 'label'"}
	}
	n, ok := tk.local()
	if !ok {
		return nil, &ParseError{Line: lno, msg: "expected %label name"}
	}
	b := p.block(n)
	if b == nil {
		return nil, &ParseError{Line: lno, msg: "branch to undefined label %" + n}
	}
	return b, nil
}

func (p *parser) parseInstr(line string, lno int) (*Instr, error) {
	tk := p.tk.lex(line)
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
		x, err := p.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("%s: expected ,", op)
		}
		y, err := p.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		return define(p.instr(Instr{Op: bop, Ty: ty, Args: p.c.vals.of(x, y), Flags: fl}))
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
		x, err := p.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("icmp: expected ,")
		}
		y, err := p.value(tk, ty, lno)
		if err != nil {
			return nil, err
		}
		return define(p.instr(Instr{Op: OpICmp, Pred: pred, Ty: I1, Args: p.c.vals.of(x, y)}))
	case "select":
		c, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if it, ok := c.Type().(IntType); !ok || it.Bits != 1 {
			return fail("select: condition must be i1, got %s", c.Type())
		}
		if !tk.eat(",") {
			return fail("select: expected ,")
		}
		t, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("select: expected ,")
		}
		fv, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !t.Type().Equal(fv.Type()) {
			return fail("select: arm types differ: %s vs %s", t.Type(), fv.Type())
		}
		return define(p.instr(Instr{Op: OpSelect, Ty: t.Type(), Args: p.c.vals.of(c, t, fv)}))
	case "zext", "sext", "trunc":
		x, err := p.typedValue(tk, lno)
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
		return define(p.instr(Instr{Op: arithOps[op], Ty: to, Args: p.c.vals.of(x)}))
	case "freeze":
		x, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		return define(p.instr(Instr{Op: OpFreeze, Ty: x.Type(), Args: p.c.vals.of(x)}))
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
		return define(p.instr(Instr{Op: OpAlloca, Ty: ptrTy, AllocTy: ty}))
	case "load":
		ty, ok := tk.typ()
		if !ok {
			return fail("load: expected type")
		}
		if !tk.eat(",") {
			return fail("load: expected ,")
		}
		ptr, err := p.typedValue(tk, lno)
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
		return define(p.instr(Instr{Op: OpLoad, Ty: ty, Args: p.c.vals.of(ptr)}))
	case "store":
		v, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("store: expected ,")
		}
		ptr, err := p.typedValue(tk, lno)
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
		return p.instr(Instr{Op: OpStore, Ty: Void, Args: p.c.vals.of(v, ptr)}), nil
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
			a, err := p.typedValue(tk, lno)
			if err != nil {
				return nil, err
			}
			p.c.vals.push(a)
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
		return p.instr(Instr{Op: OpCall, NameStr: name, Ty: retTy, Callee: callee, Args: p.c.vals.take()}), nil
	case "phi":
		ty, ok := tk.typ()
		if !ok {
			return fail("phi: expected type")
		}
		for {
			if !tk.eat("[") {
				return fail("phi: expected [")
			}
			v, err := p.value(tk, ty, lno)
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
			blk := p.block(bn)
			if blk == nil {
				return fail("phi: incoming from undefined block %%%s", bn)
			}
			if !tk.eat("]") {
				return fail("phi: expected ]")
			}
			p.c.incs.push(Incoming{Val: v, Block: blk})
			if !tk.eat(",") {
				break
			}
		}
		return define(p.instr(Instr{Op: OpPhi, Ty: ty, Incs: p.c.incs.take()}))
	case "ret":
		if name != "" {
			return fail("ret: must not have a result")
		}
		if tk.eatAnyIdent("void") {
			return p.instr(Instr{Op: OpRet, Ty: Void}), nil
		}
		v, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		return p.instr(Instr{Op: OpRet, Ty: Void, Args: p.c.vals.of(v)}), nil
	case "br":
		if name != "" {
			return fail("br: must not have a result")
		}
		if tk.peek() == "label" {
			dst, err := p.label(tk, lno)
			if err != nil {
				return nil, err
			}
			return p.instr(Instr{Op: OpBr, Ty: Void, Succs: p.c.blockPtrs.of(dst)}), nil
		}
		c, err := p.typedValue(tk, lno)
		if err != nil {
			return nil, err
		}
		if it, ok := c.Type().(IntType); !ok || it.Bits != 1 {
			return fail("br: condition must be i1")
		}
		if !tk.eat(",") {
			return fail("br: expected ,")
		}
		t, err := p.label(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat(",") {
			return fail("br: expected ,")
		}
		f, err := p.label(tk, lno)
		if err != nil {
			return nil, err
		}
		return p.instr(Instr{Op: OpCondBr, Ty: Void, Args: p.c.vals.of(c), Succs: p.c.blockPtrs.of(t, f)}), nil
	case "switch":
		if name != "" {
			return fail("switch: must not have a result")
		}
		v, err := p.typedValue(tk, lno)
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
		def, err := p.label(tk, lno)
		if err != nil {
			return nil, err
		}
		if !tk.eat("[") {
			return fail("switch: expected [")
		}
		p.c.blockPtrs.push(def)
		for !tk.eat("]") {
			cty, ok := tk.typ()
			if !ok {
				return fail("switch: expected case type")
			}
			if !cty.Equal(it) {
				return fail("switch: case type %s != value type %s", cty, it)
			}
			cv, err := p.value(tk, it, lno)
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
			dst, err := p.label(tk, lno)
			if err != nil {
				return nil, err
			}
			p.c.cases.push(cc)
			p.c.blockPtrs.push(dst)
		}
		return p.instr(Instr{Op: OpSwitch, Ty: Void, Args: p.c.vals.of(v), Succs: p.c.blockPtrs.take(), Cases: p.c.cases.take()}), nil
	case "unreachable":
		if name != "" {
			return fail("unreachable: must not have a result")
		}
		return p.instr(Instr{Op: OpUnreachable, Ty: Void}), nil
	case "":
		return fail("empty instruction")
	}
	return fail("unknown instruction %q", op)
}
