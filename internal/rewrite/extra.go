package rewrite

import (
	"math/rand"

	"veriopt/internal/ir"
)

// The sound rules beyond instcombine's scope — the simplifycfg- and
// mem2reg-flavoured transformations whose discovery the paper
// attributes to reinforcement learning (Fig. 10: "emergent learning of
// simplifycfg-style behavior"). They ignore their RNG. The exported
// four are the ones seqopt's registry lifts into passes.
var (
	FoldConstBranch   = matchRule("extra-fold-const-branch", KindExtra, findConstBranch, foldConstBranch)
	MergeBlocks       = matchRule("extra-merge-blocks", KindExtra, findMergePair, mergeBlocks)
	DiamondToSelect   = matchRule("extra-diamond-to-select", KindExtra, findDiamond, diamondToSelect)
	promoteAllocaRule = matchRule("extra-promote-alloca", KindExtra, findPromotable, promoteAlloca)
	Mem2Reg           = matchRule("extra-mem2reg", KindExtra, promotableAllocas, mem2reg)
)

// Extra returns them in their stable order.
func Extra() []*Rule {
	return []*Rule{FoldConstBranch, MergeBlocks, DiamondToSelect, promoteAllocaRule, Mem2Reg}
}

// findConstBranch locates the first terminator that branches or
// switches on a constant.
func findConstBranch(f *ir.Function) (*ir.Instr, bool) {
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || (t.Op != ir.OpCondBr && t.Op != ir.OpSwitch) {
			continue
		}
		if _, ok := t.Args[0].(*ir.Const); ok {
			return t, true
		}
	}
	return nil, false
}

// foldConstBranch rewrites `br i1 const, A, B` (or a switch on a
// constant) into an unconditional branch, fixes phis in the
// no-longer-reached successors, and prunes blocks that become
// unreachable.
func foldConstBranch(f *ir.Function, t *ir.Instr, _ *rand.Rand) bool {
	c := t.Args[0].(*ir.Const)
	from := t.Parent
	var taken *ir.Block
	var dropped []*ir.Block
	if t.Op == ir.OpCondBr {
		taken, dropped = t.Succs[0], []*ir.Block{t.Succs[1]}
		if c.IsZero() {
			taken, dropped = t.Succs[1], []*ir.Block{t.Succs[0]}
		}
	} else {
		// Switch: pick the matching case, else the default.
		taken = t.Succs[0]
		for i, cc := range t.Cases {
			if cc.Val&cc.Ty.Mask() == c.Val&c.Ty.Mask() {
				taken = t.Succs[i+1]
				break
			}
		}
		seen := map[*ir.Block]bool{taken: true}
		for _, s := range t.Succs {
			if !seen[s] {
				seen[s] = true
				dropped = append(dropped, s)
			}
		}
	}
	t.Op = ir.OpBr
	t.Args = nil
	t.Cases = nil
	t.Succs = []*ir.Block{taken}
	// Remove the dead phi incomings on the dropped edges.
	for _, d := range dropped {
		removePhiIncoming(d, from)
	}
	pruneUnreachable(f)
	return true
}

func removePhiIncoming(b *ir.Block, pred *ir.Block) {
	for _, in := range b.Phis() {
		for i, inc := range in.Incs {
			if inc.Block == pred {
				in.Incs = append(in.Incs[:i], in.Incs[i+1:]...)
				break
			}
		}
	}
}

// pruneUnreachable deletes blocks not reachable from entry, fixing
// phis that referenced them.
func pruneUnreachable(f *ir.Function) bool {
	cfg := ir.NewCFG(f)
	var kept []*ir.Block
	for i, b := range f.Blocks {
		if cfg.Reachable(i) {
			kept = append(kept, b)
			continue
		}
		for _, s := range b.Succs() {
			if cfg.Reachable(cfg.Index(s)) {
				removePhiIncoming(s, b)
			}
		}
	}
	if len(kept) == len(f.Blocks) {
		return false
	}
	f.Blocks = kept
	// Single-incoming phis collapse to their value.
	for _, b := range f.Blocks {
		for _, in := range b.Phis() { // a copy: the loop removes from b.Instrs
			if len(in.Incs) == 1 {
				ir.ReplaceAllUses(f, in, in.Incs[0].Val)
				ir.RemoveInstr(in)
			}
		}
	}
	ir.DeadCodeElim(f, nil)
	return true
}

// mergePair is a block that ends in an unconditional br and the
// successor to splice into it.
type mergePair struct{ b, c *ir.Block }

// findMergePair locates (b, c) where b ends in an unconditional br to
// c, c has exactly one predecessor, and c is not the entry.
func findMergePair(f *ir.Function) (mergePair, bool) {
	if len(f.Blocks) < 2 {
		return mergePair{}, false
	}
	cfg := ir.NewCFG(f)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		c := t.Succs[0]
		if c == f.Entry() || c == b || len(cfg.Preds(cfg.Index(c))) != 1 {
			continue
		}
		return mergePair{b, c}, true
	}
	return mergePair{}, false
}

// mergeBlocks splices a single-predecessor successor into its
// predecessor.
func mergeBlocks(f *ir.Function, p mergePair, _ *rand.Rand) bool {
	b, c := p.b, p.c
	// Collapse c's phis (single incoming from b).
	for _, in := range c.Phis() {
		if len(in.Incs) != 1 {
			return false
		}
		ir.ReplaceAllUses(f, in, in.Incs[0].Val)
	}
	// Drop b's terminator and c's phis, splice the rest of c into b.
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	for _, in := range c.Instrs {
		if in.Op == ir.OpPhi {
			continue
		}
		in.Parent = b
		b.Instrs = append(b.Instrs, in)
	}
	// Successors of c now see b as the predecessor.
	for _, s := range c.Succs() {
		for _, in := range s.Phis() {
			for i := range in.Incs {
				if in.Incs[i].Block == c {
					in.Incs[i].Block = b
				}
			}
		}
	}
	// Remove c.
	for i, blk := range f.Blocks {
		if blk == c {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			break
		}
	}
	return true
}

// diamond describes an if-then-else (or if-then) region convertible
// to a select.
type diamond struct {
	head  *ir.Block
	left  *ir.Block // may be nil (edge directly to join)
	right *ir.Block // may be nil
	join  *ir.Block
}

// findDiamond locates a two-armed region whose arms are empty or
// contain only speculatable instructions and that joins in a block
// starting with phis.
func findDiamond(f *ir.Function) (diamond, bool) {
	if len(f.Blocks) < 2 {
		return diamond{}, false
	}
	cfg := ir.NewCFG(f)
	for _, h := range f.Blocks {
		t := h.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		a, b := t.Succs[0], t.Succs[1]
		join, la, lb := diamondJoin(h, a, b, &cfg)
		if join == nil {
			continue
		}
		if len(join.Instrs) == 0 || join.Instrs[0].Op != ir.OpPhi {
			continue
		}
		if la != nil && !speculatable(la) {
			continue
		}
		if lb != nil && !speculatable(lb) {
			continue
		}
		return diamond{head: h, left: la, right: lb, join: join}, true
	}
	return diamond{}, false
}

// diamondJoin decides whether a and b converge immediately into a
// shared join block; each arm is either the join itself (empty arm)
// or a single block that unconditionally branches to the join and has
// one predecessor.
func diamondJoin(h, a, b *ir.Block, cfg *ir.CFG) (join, armA, armB *ir.Block) {
	armTarget := func(x *ir.Block) (*ir.Block, *ir.Block) {
		// Returns (join candidate, arm block or nil).
		if t := x.Term(); t != nil && t.Op == ir.OpBr && len(cfg.Preds(cfg.Index(x))) == 1 && x != h {
			return t.Succs[0], x
		}
		return x, nil
	}
	if a == b {
		return nil, nil, nil
	}
	ja, la := armTarget(a)
	jb, lb := armTarget(b)
	if ja != jb || ja == h {
		return nil, nil, nil
	}
	// The join must have exactly the two arm predecessors.
	if len(cfg.Preds(cfg.Index(ja))) != 2 {
		return nil, nil, nil
	}
	return ja, la, lb
}

// speculatable reports whether every non-terminator instruction in
// the block can be executed unconditionally (no memory, calls, or
// trapping ops).
func speculatable(b *ir.Block) bool {
	for _, in := range b.Instrs {
		if in.Op.IsTerminator() {
			continue
		}
		switch in.Op {
		case ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpAlloca, ir.OpPhi:
			return false
		}
		if in.Op.IsDivRem() {
			// Only constant non-zero divisors are safe to speculate.
			c, ok := in.Args[1].(*ir.Const)
			if !ok || c.IsZero() || (c.IsAllOnes() && (in.Op == ir.OpSDiv || in.Op == ir.OpSRem)) {
				return false
			}
		}
	}
	return true
}

// diamondToSelect hoists both arms into the head and replaces the
// join's phis with selects — the simplifycfg transformation of the
// paper's Fig. 10.
func diamondToSelect(f *ir.Function, d diamond, _ *rand.Rand) bool {
	t := d.head.Term()
	cond := t.Args[0]

	// Rebuild the head: body, hoisted arm instructions, new selects,
	// then the (rewritten) terminator.
	body := append([]*ir.Instr{}, d.head.Instrs[:len(d.head.Instrs)-1]...)
	hoist := func(arm *ir.Block) {
		if arm == nil {
			return
		}
		for _, in := range arm.Instrs[:len(arm.Instrs)-1] {
			in.Parent = d.head
			body = append(body, in)
		}
	}
	hoist(d.left)
	hoist(d.right)

	// Map each phi to a select over the incoming values. d.left is
	// the true-side arm by construction (nil if the true edge goes
	// straight to the join), d.right the false side.
	for _, phi := range d.join.Phis() { // a copy: the loop removes from join.Instrs
		var tv, fv ir.Value
		for _, inc := range phi.Incs {
			switch {
			case d.left != nil && inc.Block == d.left:
				tv = inc.Val
			case d.right != nil && inc.Block == d.right:
				fv = inc.Val
			case inc.Block == d.head && d.left == nil:
				tv = inc.Val
			case inc.Block == d.head && d.right == nil:
				fv = inc.Val
			}
		}
		if tv == nil || fv == nil {
			return false
		}
		sel := &ir.Instr{Op: ir.OpSelect, NameStr: phi.NameStr + ".sel", Ty: phi.Ty,
			Args: []ir.Value{cond, tv, fv}, Parent: d.head}
		body = append(body, sel)
		ir.ReplaceAllUses(f, phi, sel)
		ir.RemoveInstr(phi)
	}
	d.head.Instrs = append(body, t)

	// Head now branches straight to the join.
	t.Op = ir.OpBr
	t.Args = nil
	t.Succs = []*ir.Block{d.join}
	pruneUnreachable(f)
	MergeBlocks.Apply(f, nil)
	return true
}

// promotion is an alloca, its one store and its loads, in layout order.
type promotion struct {
	alloca, store *ir.Instr
	loads         []*ir.Instr
}

// findPromotable locates a non-escaping alloca with exactly one store
// whose block dominates every load (and precedes them within its own
// block).
func findPromotable(f *ir.Function) (promotion, bool) {
	type info struct {
		stores []*ir.Instr
		loads  []*ir.Instr
		escape bool
	}
	infos := map[*ir.Instr]*info{}
	// order fixes the candidate scan order (map iteration would make
	// the promoted alloca vary run to run).
	var order []*ir.Instr
	get := func(a *ir.Instr) *info {
		if infos[a] == nil {
			infos[a] = &info{}
			order = append(order, a)
		}
		return infos[a]
	}
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpLoad:
			if a, ok := in.Args[0].(*ir.Instr); ok && a.Op == ir.OpAlloca {
				get(a).loads = append(get(a).loads, in)
				return
			}
		case ir.OpStore:
			if a, ok := in.Args[1].(*ir.Instr); ok && a.Op == ir.OpAlloca {
				st := get(a)
				st.stores = append(st.stores, in)
			}
			if a, ok := in.Args[0].(*ir.Instr); ok && a.Op == ir.OpAlloca {
				get(a).escape = true
			}
			return
		}
		for _, arg := range in.Args {
			if a, ok := arg.(*ir.Instr); ok && a.Op == ir.OpAlloca && in.Op != ir.OpLoad {
				get(a).escape = true
			}
		}
	})
	cfg := ir.NewCFG(f)
	pos := map[*ir.Instr]int{}
	i := 0
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) { pos[in] = i; i++ })
	for _, a := range order {
		inf := infos[a]
		if inf.escape || len(inf.stores) != 1 || len(inf.loads) == 0 {
			continue
		}
		st := inf.stores[0]
		ok := true
		for _, ld := range inf.loads {
			if st.Parent == ld.Parent {
				if pos[st] > pos[ld] {
					ok = false
					break
				}
			} else if !cfg.Dominates(cfg.Index(st.Parent), cfg.Index(ld.Parent)) {
				ok = false
				break
			}
			if !ld.Ty.Equal(st.Args[0].Type()) {
				ok = false
				break
			}
		}
		if ok {
			return promotion{alloca: a, store: st, loads: inf.loads}, true
		}
	}
	return promotion{}, false
}

// promoteAlloca replaces every load of a single-store dominating
// alloca with the stored value, then deletes the store and alloca.
func promoteAlloca(f *ir.Function, p promotion, _ *rand.Rand) bool {
	for _, ld := range p.loads {
		ir.ReplaceAllUses(f, ld, p.store.Args[0])
		ir.RemoveInstr(ld)
	}
	ir.RemoveInstr(p.store)
	ir.RemoveInstr(p.alloca)
	return true
}
