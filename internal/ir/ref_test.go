package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// The reference implementations the differential tests and fuzzers
// compare against: the rune-by-rune lexer and the clone + renumber +
// Sprintf-print + fingerprint key, as they were before the front half
// stopped copying. Their bytes define the persisted key format.

func refLex(line string) []string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch r {
		case ' ', '\t':
			flush()
		case '(', ')', ',', '=', '[', ']', '{', '}', ':':
			flush()
			words = append(words, string(r))
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return words
}

func refCanonicalText(f *Function) string {
	c := refCloneFunc(f)
	c.Attrs = ""
	RenumberFunc(c)
	return refFuncString(c)
}

func refCanonicalKey(f *Function) string { return refFingerprintText(refCanonicalText(f)) }

func refStructurallyEqual(a, b *Function) bool {
	ca, cb := refCloneFunc(a), refCloneFunc(b)
	ca.NameStr, cb.NameStr = "f", "f"
	ca.Attrs, cb.Attrs = "", ""
	RenumberFunc(ca)
	RenumberFunc(cb)
	return refFuncString(ca) == refFuncString(cb)
}

func refFuncString(f *Function) string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		s := p.Ty.String()
		if p.Noundef {
			s += " noundef"
		}
		params[i] = s + " %" + p.NameStr
	}
	fmt.Fprintf(&sb, "define %s @%s(%s)", f.RetTy, f.NameStr, strings.Join(params, ", "))
	if f.Attrs != "" {
		sb.WriteString(" " + f.Attrs)
	}
	sb.WriteString(" {\n")
	for i, b := range f.Blocks {
		if i > 0 {
			fmt.Fprintf(&sb, "\n%s:\n", b.NameStr)
		} else if len(f.Blocks) > 1 {
			fmt.Fprintf(&sb, "%s:\n", b.NameStr)
		}
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(refFormatInstr(in))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// refOperand is what the Operand method of every Value used to render.
func refOperand(v Value) string {
	switch v := v.(type) {
	case *Const:
		if v.Ty.Bits == 1 {
			if v.Val&1 == 1 {
				return "true"
			}
			return "false"
		}
		return strconv.FormatInt(v.Signed(), 10)
	case *Undef:
		return "undef"
	case *Poison:
		return "poison"
	case *Param:
		return "%" + v.NameStr
	case *GlobalRef:
		return "@" + v.NameStr
	case *Instr:
		return "%" + v.NameStr
	}
	panic(fmt.Sprintf("refOperand: %T", v))
}

func refOperandWithType(v Value) string {
	return fmt.Sprintf("%s %s", v.Type(), refOperand(v))
}

func refFormatInstr(in *Instr) string {
	switch {
	case in.Op.IsBinary():
		return fmt.Sprintf("%%%s = %s%s %s %s, %s", in.NameStr, in.Op, in.Flags,
			in.Ty, refOperand(in.Args[0]), refOperand(in.Args[1]))
	case in.Op == OpICmp:
		return fmt.Sprintf("%%%s = icmp %s %s %s, %s", in.NameStr, in.Pred,
			in.Args[0].Type(), refOperand(in.Args[0]), refOperand(in.Args[1]))
	case in.Op == OpSelect:
		return fmt.Sprintf("%%%s = select %s, %s, %s", in.NameStr,
			refOperandWithType(in.Args[0]), refOperandWithType(in.Args[1]), refOperandWithType(in.Args[2]))
	case in.Op.IsCast():
		return fmt.Sprintf("%%%s = %s %s to %s", in.NameStr, in.Op,
			refOperandWithType(in.Args[0]), in.Ty)
	case in.Op == OpFreeze:
		return fmt.Sprintf("%%%s = freeze %s", in.NameStr, refOperandWithType(in.Args[0]))
	case in.Op == OpAlloca:
		return fmt.Sprintf("%%%s = alloca %s", in.NameStr, in.AllocTy)
	case in.Op == OpLoad:
		return fmt.Sprintf("%%%s = load %s, ptr %s", in.NameStr, in.Ty, refOperand(in.Args[0]))
	case in.Op == OpStore:
		return fmt.Sprintf("store %s, ptr %s", refOperandWithType(in.Args[0]), refOperand(in.Args[1]))
	case in.Op == OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = refOperandWithType(a)
		}
		call := fmt.Sprintf("call %s @%s(%s)", in.Ty, in.Callee, strings.Join(args, ", "))
		if in.HasResult() {
			return fmt.Sprintf("%%%s = %s", in.NameStr, call)
		}
		return call
	case in.Op == OpPhi:
		incs := make([]string, len(in.Incs))
		for i, inc := range in.Incs {
			incs[i] = fmt.Sprintf("[ %s, %%%s ]", refOperand(inc.Val), inc.Block.NameStr)
		}
		return fmt.Sprintf("%%%s = phi %s %s", in.NameStr, in.Ty, strings.Join(incs, ", "))
	case in.Op == OpRet:
		if len(in.Args) == 0 {
			return "ret void"
		}
		return fmt.Sprintf("ret %s", refOperandWithType(in.Args[0]))
	case in.Op == OpBr:
		return fmt.Sprintf("br label %%%s", in.Succs[0].NameStr)
	case in.Op == OpCondBr:
		return fmt.Sprintf("br i1 %s, label %%%s, label %%%s",
			refOperand(in.Args[0]), in.Succs[0].NameStr, in.Succs[1].NameStr)
	case in.Op == OpSwitch:
		var sb strings.Builder
		fmt.Fprintf(&sb, "switch %s, label %%%s [", refOperandWithType(in.Args[0]), in.Succs[0].NameStr)
		for i, c := range in.Cases {
			fmt.Fprintf(&sb, " %s, label %%%s", refOperandWithType(c), in.Succs[i+1].NameStr)
		}
		sb.WriteString(" ]")
		return sb.String()
	case in.Op == OpUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("<invalid op %d>", int(in.Op))
}

func refFingerprintText(s string) string {
	lines := strings.Split(s, "\n")
	var out []string
	for _, l := range lines {
		l = strings.Join(strings.Fields(l), " ")
		if l != "" {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// refCloneFunc is CloneFunc as it was before it took its memory from
// slabs: an object per parameter, block and instruction and a slice per
// list, each allocated at its final length. checkClone holds the slab
// clone to what it copies and what it shares.
func refCloneFunc(f *Function) *Function {
	nf := &Function{NameStr: f.NameStr, RetTy: f.RetTy, Attrs: f.Attrs}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, p := range f.Params {
		nf.Params = append(nf.Params, &Param{NameStr: p.NameStr, Ty: p.Ty, Noundef: p.Noundef})
	}
	results := 0
	for _, b := range f.Blocks {
		nb := &Block{NameStr: b.NameStr, Parent: nf}
		nf.Blocks = append(nf.Blocks, nb)
		bmap[b] = nb
		for _, in := range b.Instrs {
			if in.HasResult() {
				results++
			}
		}
	}
	vmap := make(map[*Instr]*Instr, results)
	mapVal := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			if ni, ok := vmap[x]; ok {
				return ni
			}
		case *Param:
			for i, p := range f.Params {
				if p == x {
					return nf.Params[i]
				}
			}
		}
		return v
	}
	for bi, b := range f.Blocks {
		nb := nf.Blocks[bi]
		if len(b.Instrs) > 0 {
			nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		}
		for _, in := range b.Instrs {
			ni := &Instr{
				Op: in.Op, NameStr: in.NameStr, Ty: in.Ty,
				Pred: in.Pred, Flags: in.Flags, AllocTy: in.AllocTy, Callee: in.Callee,
				Cases: append([]*Const(nil), in.Cases...),
			}
			nb.appendInstr(ni)
			if in.HasResult() {
				vmap[in] = ni
			}
		}
	}
	for bi, b := range f.Blocks {
		nb := nf.Blocks[bi]
		for ii, in := range b.Instrs {
			ni := nb.Instrs[ii]
			if len(in.Args) > 0 {
				ni.Args = make([]Value, len(in.Args))
			}
			for i, a := range in.Args {
				ni.Args[i] = mapVal(a)
			}
			if len(in.Succs) > 0 {
				ni.Succs = make([]*Block, len(in.Succs))
			}
			for i, s := range in.Succs {
				ni.Succs[i] = bmap[s]
			}
			if len(in.Incs) > 0 {
				ni.Incs = make([]Incoming, len(in.Incs))
			}
			for i, inc := range in.Incs {
				ni.Incs[i] = Incoming{Val: mapVal(inc.Val), Block: bmap[inc.Block]}
			}
		}
	}
	return nf
}

// refDeadCodeElim is DeadCodeElim as it was before it became
// HasDeadCode's acting half: a used-set filled each round and a list of
// the dead, removed after the walk. checkDCE holds the in-place walk to
// it.
func refDeadCodeElim(f *Function) int {
	removed := 0
	used := make(map[*Instr]struct{}, f.NumInstrs())
	for {
		clear(used)
		f.ForEachInstr(func(_ *Block, in *Instr) {
			for _, a := range in.Args {
				if def, ok := a.(*Instr); ok {
					used[def] = struct{}{}
				}
			}
			for _, inc := range in.Incs {
				if def, ok := inc.Val.(*Instr); ok {
					used[def] = struct{}{}
				}
			}
		})
		var dead []*Instr
		f.ForEachInstr(func(_ *Block, in *Instr) {
			if !in.HasResult() {
				return
			}
			if _, ok := used[in]; !ok && !hasSideEffects(in) {
				dead = append(dead, in)
			}
		})
		if len(dead) == 0 {
			return removed
		}
		for _, in := range dead {
			RemoveInstr(in)
			removed++
		}
	}
}

// The map-per-question CFG helpers and the VerifyFunc built on them, as
// they were before the dense analysis (cfg.go): the reference
// FuzzVerifyFuncVsReference and the ill-formed table hold the new
// verifier to, on accept/reject and on the message. verifyTypes, which
// the change left alone, is the live one.

// refPreds computes the predecessor map of a function's CFG.
func refPreds(f *Function) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		preds[b] = nil
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// refReversePostOrder returns the blocks reachable from entry in reverse
// post-order.
func refReversePostOrder(f *Function) []*Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	seen := map[*Block]bool{}
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// refReachable returns the set of blocks reachable from entry.
func refReachable(f *Function) map[*Block]bool {
	seen := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(b *Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
	}
	dfs(f.Entry())
	return seen
}

// refDominators computes the immediate-dominator map using the classic
// Cooper/Harvey/Kennedy iterative algorithm over reverse post-order.
// The entry block maps to itself; unreachable blocks are absent.
func refDominators(f *Function) map[*Block]*Block {
	rpo := refReversePostOrder(f)
	if len(rpo) == 0 {
		return nil
	}
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	preds := refPreds(f)
	idom := make(map[*Block]*Block, len(rpo))
	entry := rpo[0]
	idom[entry] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range preds[b] {
				if idom[p] == nil {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// refDominates reports whether a dominates b under the idom map
// (reflexive: every block dominates itself).
func refDominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return a == b
		}
		b = next
	}
}

func refVerifyFunc(f *Function) error {
	fail := func(format string, args ...interface{}) error {
		return &verifyError{f.NameStr, fmt.Sprintf(format, args...)}
	}
	if len(f.Blocks) == 0 {
		return fail("no blocks")
	}

	names := map[string]bool{}
	for _, p := range f.Params {
		if names[p.NameStr] {
			return fail("duplicate name %%%s", p.NameStr)
		}
		names[p.NameStr] = true
	}
	blockNames := map[string]bool{}
	for _, b := range f.Blocks {
		if blockNames[b.NameStr] {
			return fail("duplicate block %s", b.NameStr)
		}
		blockNames[b.NameStr] = true
		if len(b.Instrs) == 0 {
			return fail("block %s is empty", b.NameStr)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fail("block %s does not end in a terminator", b.NameStr)
				}
				return fail("block %s has terminator before its end", b.NameStr)
			}
			if in.Op == OpPhi {
				// Phis must be grouped at the block head.
				for j := 0; j < i; j++ {
					if b.Instrs[j].Op != OpPhi {
						return fail("block %s: phi %%%s not at block head", b.NameStr, in.NameStr)
					}
				}
			}
			if in.HasResult() {
				if in.NameStr == "" {
					return fail("unnamed %s result in block %s", in.Op, b.NameStr)
				}
				if names[in.NameStr] {
					return fail("duplicate name %%%s", in.NameStr)
				}
				names[in.NameStr] = true
			}
		}
	}

	if err := verifyTypes(f, fail); err != nil {
		return err
	}
	preds := refPreds(f)
	reach := refReachable(f)
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for _, in := range b.Phis() {
			if len(in.Incs) != len(preds[b]) {
				return fail("phi %%%s in %s has %d incomings for %d predecessors",
					in.NameStr, b.NameStr, len(in.Incs), len(preds[b]))
			}
			seenPred := map[*Block]bool{}
			for _, inc := range in.Incs {
				if seenPred[inc.Block] {
					return fail("phi %%%s: duplicate incoming block %s", in.NameStr, inc.Block.NameStr)
				}
				seenPred[inc.Block] = true
				found := false
				for _, p := range preds[b] {
					if p == inc.Block {
						found = true
						break
					}
				}
				if !found {
					return fail("phi %%%s: %s is not a predecessor of %s", in.NameStr, inc.Block.NameStr, b.NameStr)
				}
				if !inc.Val.Type().Equal(in.Ty) {
					return fail("phi %%%s: incoming type %s != phi type %s", in.NameStr, inc.Val.Type(), in.Ty)
				}
			}
		}
	}
	return refVerifyDominance(f, fail)
}

// refVerifyDominance checks that each use of an instruction result is
// dominated by its definition (with the usual phi-edge adjustment).
func refVerifyDominance(f *Function, fail func(string, ...interface{}) error) error {
	idom := refDominators(f)
	reach := refReachable(f)

	defBlock := map[Value]*Block{}
	defIndex := map[Value]int{}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.HasResult() {
				defBlock[in] = b
				defIndex[in] = i
			}
		}
	}

	checkUse := func(user *Instr, userBlock *Block, userIdx int, v Value) error {
		def, ok := v.(*Instr)
		if !ok {
			return nil // params and constants dominate everything
		}
		db, ok := defBlock[def]
		if !ok {
			return fail("%%%s used in %s but defined outside function", def.NameStr, userBlock.NameStr)
		}
		if db == userBlock {
			if defIndex[def] >= userIdx {
				return fail("%%%s used before definition in block %s", def.NameStr, userBlock.NameStr)
			}
			return nil
		}
		if !refDominates(idom, db, userBlock) {
			return fail("definition of %%%s (block %s) does not dominate use in %s", def.NameStr, db.NameStr, userBlock.NameStr)
		}
		_ = user
		return nil
	}

	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for i, in := range b.Instrs {
			if in.Op == OpPhi {
				for _, inc := range in.Incs {
					def, ok := inc.Val.(*Instr)
					if !ok {
						continue
					}
					db, ok2 := defBlock[def]
					if !ok2 {
						return fail("phi %%%s references value defined outside function", in.NameStr)
					}
					// The incoming value must dominate the end of the
					// incoming edge's source block.
					if db != inc.Block && !refDominates(idom, db, inc.Block) {
						return fail("phi %%%s: incoming %%%s does not dominate predecessor %s",
							in.NameStr, def.NameStr, inc.Block.NameStr)
					}
				}
				continue
			}
			for _, a := range in.Args {
				if err := checkUse(in, b, i, a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// refParse and refParseFunc are parse.go and lex.go as they were while
// a parse went through a Module, a slice of lines and maps of names and
// blocks (every identifier prefixed ref), with two changes since: the
// body's first pass strips a line's ';' comment before it classifies
// the line, so that clang's "next:  ; preds = %entry" is a label and
// "} ; end" closes the body; parseDecl leaves its line only when it
// returns, so its errors name the declaration's line, not the next
// one; and a forward reference records the line it is made on, which
// its "use of undefined value" or "type mismatch" error names (it was
// line 0). FuzzParseFuncVsReference and checkParse
// hold the parser to them, on the error text and, where both succeed, on
// what they build. They define every ParseError a client, the vstore
// and Eq. 2's BLEU score see.

// refParse parses a module (declarations and function definitions) from
// LLVM-like textual IR. It must be valid UTF-8: names are substrings of
// src, and a cache key holding invalid bytes would not survive JSON.
func refParse(src string) (*Module, error) {
	p := &refParser{lines: strings.Split(src, "\n"), tk: refTok{words: make([]string, 0, 32)}}
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

// refParseFunc parses a single function definition.
func refParseFunc(src string) (*Function, error) {
	m, err := refParse(src)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) != 1 {
		return nil, &ParseError{Line: 1, msg: fmt.Sprintf("expected exactly one function, found %d", len(m.Funcs))}
	}
	return m.Funcs[0], nil
}

type refParser struct {
	lines []string
	pos   int
	tk    refTok // the one line being tokenized
}

func (p *refParser) eof() bool        { return p.pos >= len(p.lines) }
func (p *refParser) peekLine() string { return p.lines[p.pos] }
func (p *refParser) next() string     { l := p.lines[p.pos]; p.pos++; return l }

func (p *refParser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.pos + 1, msg: fmt.Sprintf(format, args...)}
}

// refPendingRef is a placeholder for a forward-referenced local value,
// made on line.
type refPendingRef struct {
	name string
	ty   Type
	line int
}

func (r *refPendingRef) Type() Type { return r.ty }

func (p *refParser) parseDecl() (*Declaration, error) {
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

func (p *refParser) parseFunc() (*Function, error) {
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
		// A line is classified without its comment: clang writes
		// "next:  ; preds = %entry" and the like.
		line := p.next()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
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
	ip := &refInstrParser{
		names: names, blocks: blocks, tk: &p.tk, instrs: make([]Instr, 0, total),
		vals: refChunk[Value]{size: 2 * total}, consts: refChunk[Const]{size: total},
		succs: refChunk[*Block]{size: 2 * len(raws)}, incs: refChunk[Incoming]{size: 4 * len(raws)},
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
	resolve := func(v Value) (Value, error) {
		pr, ok := v.(*refPendingRef)
		if !ok {
			return v, nil
		}
		rv, ok := names[pr.name]
		if !ok {
			return nil, &ParseError{Line: pr.line, msg: "use of undefined value %" + pr.name}
		}
		if pr.ty != nil && !rv.Type().Equal(pr.ty) {
			return nil, &ParseError{Line: pr.line, msg: fmt.Sprintf("type mismatch for %%%s: declared %s, defined %s", pr.name, pr.ty, rv.Type())}
		}
		return rv, nil
	}
	var rerr error
	f.ForEachInstr(func(b *Block, in *Instr) {
		if rerr != nil {
			return
		}
		for i, a := range in.Args {
			v, err := resolve(a)
			if err != nil {
				rerr = err
				return
			}
			in.Args[i] = v
		}
		for i := range in.Incs {
			v, err := resolve(in.Incs[i].Val)
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

// refInstrParser parses individual instruction lines.
type refInstrParser struct {
	names  map[string]Value
	blocks map[string]*Block
	tk     *refTok
	// instrs has room for exactly the instructions the function holds.
	instrs []Instr
	vals   refChunk[Value]
	succs  refChunk[*Block]
	incs   refChunk[Incoming]
	consts refChunk[Const]
}

// instr moves in to the next slot of the function's instruction slab,
// which has one per instruction line: it is never grown (the reslice
// would panic first), so the pointer stays good.
func (ip *refInstrParser) instr(in Instr) *Instr {
	ip.instrs = ip.instrs[:len(ip.instrs)+1]
	p := &ip.instrs[len(ip.instrs)-1]
	*p = in
	return p
}

// konst returns the constant val of type ty, truncated to its width: a
// window of one in the constant chunk.
func (ip *refInstrParser) konst(ty IntType, val uint64) *Const {
	return &ip.consts.of(Const{Ty: ty, Val: val & ty.Mask()})[0]
}

// chunk hands out windows of one backing array to lists whose lengths
// the first pass does not know (operands, successors, phi incomings),
// in place of an allocation each. One window is open at a time: push
// extends it, take closes it.
type refChunk[T any] struct {
	buf  []T
	open int // where the open window begins
	size int // elements in a fresh array
}

// push appends v to the open window. A full array is replaced, never
// grown — the windows taken from it stay where they are — and the open
// window moves to the new one.
func (c *refChunk[T]) push(v T) {
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
func (c *refChunk[T]) take() []T {
	w := c.buf[c.open:len(c.buf):len(c.buf)]
	c.open = len(c.buf)
	if len(w) == 0 {
		return nil
	}
	return w
}

// of returns vs as one window.
func (c *refChunk[T]) of(vs ...T) []T {
	for _, v := range vs {
		c.push(v)
	}
	return c.take()
}

// refArithOps maps the mnemonics of the binary and cast opcodes.
var refArithOps = map[string]Opcode{
	"add": OpAdd, "sub": OpSub, "mul": OpMul,
	"udiv": OpUDiv, "sdiv": OpSDiv, "urem": OpURem, "srem": OpSRem,
	"and": OpAnd, "or": OpOr, "xor": OpXor,
	"shl": OpShl, "lshr": OpLShr, "ashr": OpAShr,
	"zext": OpZExt, "sext": OpSExt, "trunc": OpTrunc,
}

func (ip *refInstrParser) value(tk *refTok, ty Type, lno int) (Value, error) {
	if n, ok := tk.local(); ok {
		if v, ok := ip.names[n]; ok {
			if ty != nil && !v.Type().Equal(ty) {
				return nil, &ParseError{Line: lno, msg: fmt.Sprintf("operand %%%s has type %s, expected %s", n, v.Type(), ty)}
			}
			return v, nil
		}
		return &refPendingRef{name: n, ty: ty, line: lno}, nil
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
func (ip *refInstrParser) typedValue(tk *refTok, lno int) (Value, error) {
	ty, ok := tk.typ()
	if !ok {
		return nil, &ParseError{Line: lno, msg: fmt.Sprintf("expected type, got %q", tk.peek())}
	}
	for tk.eatAnyIdent("noundef") {
	}
	return ip.value(tk, ty, lno)
}

func (ip *refInstrParser) label(tk *refTok, lno int) (*Block, error) {
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

func (ip *refInstrParser) parseInstr(line string, lno int) (*Instr, error) {
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
	if bop := refArithOps[op]; bop.IsBinary() {
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
		return define(ip.instr(Instr{Op: refArithOps[op], Ty: to, Args: ip.vals.of(x)}))
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

// refTok is a tiny single-line token cursor used by the parser. Tokens
// are idents (including keywords, types and integer literals), local
// refs (%x), global refs (@x), and single-character punctuation.
type refTok struct {
	words []string
	i     int
}

// lex points the cursor at the tokens of one line, reusing its word
// slice. Every token is a substring of line: the separators are all
// ASCII, so a byte scan cannot split a multi-byte rune. Punctuation
// characters are their own tokens; comments (';' to end of line) are
// stripped.
func (t *refTok) lex(line string) *refTok {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	t.words, t.i = t.words[:0], 0
	start := -1
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '(', ')', ',', '=', '[', ']', '{', '}', ':':
			if start >= 0 {
				t.words = append(t.words, line[start:i])
				start = -1
			}
			if c := line[i]; c != ' ' && c != '\t' {
				t.words = append(t.words, line[i:i+1])
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		t.words = append(t.words, line[start:])
	}
	return t
}

func (t *refTok) peek() string {
	if t.i < len(t.words) {
		return t.words[t.i]
	}
	return ""
}

func (t *refTok) eat(w string) bool {
	if t.peek() == w {
		t.i++
		return true
	}
	return false
}

// eatAnyIdent consumes the next token if it equals any of the given
// identifiers, returning true on a match.
func (t *refTok) eatAnyIdent(ids ...string) bool {
	for _, id := range ids {
		if t.eat(id) {
			return true
		}
	}
	return false
}

// ident consumes and returns the next bare identifier ("" at EOL or
// punctuation/reference tokens).
func (t *refTok) ident() string {
	w := t.peek()
	if w == "" || strings.IndexByte("%@(),=[]{}:", w[0]) >= 0 {
		return ""
	}
	t.i++
	return w
}

// local consumes a %name token, returning the bare name.
func (t *refTok) local() (string, bool) { return t.sigil('%') }

// global consumes a @name token, returning the bare name.
func (t *refTok) global() (string, bool) { return t.sigil('@') }

func (t *refTok) sigil(c byte) (string, bool) {
	if w := t.peek(); len(w) > 1 && w[0] == c {
		t.i++
		return w[1:], true
	}
	return "", false
}

// typ consumes a type token: iN, ptr, or void.
func (t *refTok) typ() (Type, bool) {
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

// rest returns the unconsumed remainder of the line, space-joined.
func (t *refTok) rest() string { return strings.Join(t.words[t.i:], " ") }

// checkParse holds ParseFunc and Parse to refParseFunc and refParse:
// the same error text, or else functions that print alike, are
// structurally equal and carry the same names, and declarations alike.
func checkParse(t *testing.T, src string) {
	t.Helper()
	got, gerr := ParseFunc(src)
	want, werr := refParseFunc(src)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("ParseFunc: %v, reference %v\n%q", gerr, werr, src)
		}
	} else {
		checkSameFunc(t, got, want, src)
	}
	gm, gerr := Parse(src)
	wm, werr := refParse(src)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("Parse: %v, reference %v\n%q", gerr, werr, src)
		}
		return
	}
	if len(gm.Funcs) != len(wm.Funcs) || len(gm.Decls) != len(wm.Decls) {
		t.Fatalf("Parse: %d functions and %d declarations, reference %d and %d\n%q", len(gm.Funcs), len(gm.Decls), len(wm.Funcs), len(wm.Decls), src)
	}
	for i := range gm.Funcs {
		checkSameFunc(t, gm.Funcs[i], wm.Funcs[i], src)
	}
	for i, d := range gm.Decls {
		if w := wm.Decls[i]; fmt.Sprint(d.NameStr, d.RetTy, d.ParamTys, d.readNone) != fmt.Sprint(w.NameStr, w.RetTy, w.ParamTys, w.readNone) {
			t.Fatalf("Parse: declaration %d is %v, reference %v\n%q", i, *d, *w, src)
		}
	}
}

func checkSameFunc(t *testing.T, got, want *Function, src string) {
	t.Helper()
	if g, w := FuncString(got), refFuncString(want); g != w {
		t.Fatalf("parsed function prints\n%s\nreference\n%s\nfrom %q", g, w, src)
	}
	if !refStructurallyEqual(got, want) {
		t.Fatalf("parsed function is not structurally equal to the reference's\n%q", src)
	}
	if g, w := funcNames(got), funcNames(want); !slices.Equal(g, w) {
		t.Fatalf("parsed names %q, reference %q\n%q", g, w, src)
	}
}

// funcNames lists the function's name, then its parameters', blocks'
// and instructions' in layout order.
func funcNames(f *Function) []string {
	names := []string{f.NameStr, f.Attrs}
	for _, p := range f.Params {
		names = append(names, p.NameStr)
	}
	for _, b := range f.Blocks {
		names = append(names, b.NameStr)
		for _, in := range b.Instrs {
			names = append(names, in.NameStr)
		}
	}
	return names
}
