package rewrite

import (
	"math/rand"
	"slices"

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
	ir.DeadCodeElim(f)
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
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		c := t.Succs[0]
		if c == f.Entry() || c == b || predEdges(f, c) != 1 {
			continue
		}
		return mergePair{b, c}, true
	}
	return mergePair{}, false
}

// predEdges counts the edges into b from f's blocks, one per edge, as
// ir.CFG's Preds does (none for a block not in f), without building
// the analysis: a finder that answers no allocates nothing.
func predEdges(f *ir.Function, b *ir.Block) int {
	n, in := 0, false
	for _, x := range f.Blocks {
		in = in || x == b
		for _, s := range x.Succs() {
			if s == b {
				n++
			}
		}
	}
	if !in {
		return 0
	}
	return n
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
	for _, h := range f.Blocks {
		t := h.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		a, b := t.Succs[0], t.Succs[1]
		join, la, lb := diamondJoin(f, h, a, b)
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
func diamondJoin(f *ir.Function, h, a, b *ir.Block) (join, armA, armB *ir.Block) {
	armTarget := func(x *ir.Block) (*ir.Block, *ir.Block) {
		// Returns (join candidate, arm block or nil).
		if t := x.Term(); t != nil && t.Op == ir.OpBr && predEdges(f, x) == 1 && x != h {
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
	if predEdges(f, ja) != 2 {
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
// block), trying the allocas in the order of their first load or
// store: one asked again at a later access answers no again.
func findPromotable(f *ir.Function) (promotion, bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			a := accessedAlloca(in)
			if a == nil {
				continue
			}
			if st := singleStore(f, a); st != nil && storeReachesLoads(f, a, st) {
				var loads []*ir.Instr
				f.ForEachInstr(func(_ *ir.Block, ld *ir.Instr) {
					if ld.Op == ir.OpLoad && ld.Args[0] == ir.Value(a) {
						loads = append(loads, ld)
					}
				})
				return promotion{alloca: a, store: st, loads: loads}, true
			}
		}
	}
	return promotion{}, false
}

// accessedAlloca returns the alloca a load reads or a store writes, or
// nil.
func accessedAlloca(in *ir.Instr) *ir.Instr {
	var p ir.Value
	switch in.Op {
	case ir.OpLoad:
		p = in.Args[0]
	case ir.OpStore:
		p = in.Args[1]
	}
	if a, ok := p.(*ir.Instr); ok && a.Op == ir.OpAlloca {
		return a
	}
	return nil
}

// singleStore returns the one store to alloca a when a is loaded and
// never escapes (an operand of anything but a load's address or a
// store's pointer); nil otherwise.
func singleStore(f *ir.Function, a *ir.Instr) *ir.Instr {
	var store *ir.Instr
	loads, stores := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpStore && in.Args[0] == ir.Value(a),
				in.Op != ir.OpLoad && in.Op != ir.OpStore && slices.Contains(in.Args, ir.Value(a)):
				return nil
			case in.Op == ir.OpLoad && in.Args[0] == ir.Value(a):
				loads++
			case in.Op == ir.OpStore && in.Args[1] == ir.Value(a):
				store = in
				stores++
			}
		}
	}
	if loads == 0 || stores != 1 {
		return nil
	}
	return store
}

// storeReachesLoads reports whether st, the one store to alloca a,
// comes before every load of a in its own block and dominates the
// blocks of the others, each load reading the stored type. The
// dominator analysis is built only for a load outside st's block.
func storeReachesLoads(f *ir.Function, a, st *ir.Instr) bool {
	var cfg ir.CFG
	built := false
	for _, b := range f.Blocks {
		for _, ld := range b.Instrs {
			if ld.Op != ir.OpLoad || ld.Args[0] != ir.Value(a) {
				continue
			}
			if b == st.Parent {
				if slices.Index(b.Instrs, st) > slices.Index(b.Instrs, ld) {
					return false
				}
			} else {
				if !built {
					cfg, built = ir.NewCFG(f), true
				}
				if !cfg.Dominates(cfg.Index(st.Parent), cfg.Index(b)) {
					return false
				}
			}
			if !ld.Ty.Equal(st.Args[0].Type()) {
				return false
			}
		}
	}
	return true
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
