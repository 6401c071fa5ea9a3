package ir

import (
	"fmt"
	"strconv"
	"strings"
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
	case *pendingRef:
		return "%" + v.name
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
