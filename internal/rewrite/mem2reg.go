package rewrite

import (
	"math/rand"
	"slices"
	"strconv"

	"veriopt/internal/ir"
)

// mem2reg promotes non-escaping allocas with consistent access types
// to SSA values, inserting phi nodes where paths join — the
// "mem2reg-like behaviour" the paper observes emerging during the
// latency stage (§V-E, Fig. 10). The construction follows Braun et
// al.'s simple-and-efficient SSA algorithm: block-local defs first,
// then recursive lookups that pre-install phis to break cycles.
//
// It promotes on a copy (promoteCopy with a copier of its own) and
// moves the result into f only once it verifies, so the rule is safe to
// expose as a policy action and false leaves f untouched, every
// instruction where it was. That copy is the one a rule makes: its
// finder, countPromotable, reads f only and allocates nothing; n is
// what it counted.
func mem2reg(f *ir.Function, n int, _ *rand.Rand) bool {
	var c ir.Copier
	g, ok := promoteCopy(&c, f, n)
	if !ok {
		return false
	}
	*f = *g
	for _, b := range f.Blocks {
		b.Parent = f
	}
	return true
}

// PromoteCopy is mem2reg into a copy the caller keeps: it copies f with
// c, promotes the copy and returns it if it passes ir.VerifyFunc. With
// nothing to promote it copies nothing, and a copy that does not verify
// it releases to c; either way it returns f, only read, and false.
func PromoteCopy(c *ir.Copier, f *ir.Function) (*ir.Function, bool) {
	n, ok := countPromotable(f)
	if !ok {
		return f, false
	}
	return promoteCopy(c, f, n)
}

// promoteCopy is PromoteCopy once f's n promotable allocas are counted.
func promoteCopy(c *ir.Copier, f *ir.Function, n int) (*ir.Function, bool) {
	g := c.Clone(f)
	allocas := make([]*ir.Instr, 0, n) // the match counted f's allocas; these are the copy's
	g.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if promotable(g, in) {
			allocas = append(allocas, in)
		}
	})
	p := &promoter{
		f:       g,
		cfg:     ir.NewCFG(g),
		allocas: allocas,
		blockIn: make([]liveIn, len(allocas)*len(g.Blocks)),
	}
	p.run()
	if err := ir.VerifyFunc(g); err != nil {
		c.Release()
		return f, false
	}
	return g, true
}

// liveIn is the resolved block-entry value of one alloca at one block.
// asked without v is a lookup on its way round a cycle (see readVar).
type liveIn struct {
	v     ir.Value
	asked bool
}

type promoter struct {
	f *ir.Function
	// cfg is of f as cloned: run moves instructions, never blocks or
	// terminators.
	cfg ir.CFG
	// allocas are the promoted allocas in layout order; an alloca is
	// named by its position in it, a block by its index in f.
	allocas []*ir.Instr
	// blockIn holds alloca ai's value entering block bi at
	// ai*len(f.Blocks)+bi.
	blockIn []liveIn
	nextID  int
}

// promotable reports whether in is an alloca that is loaded, never
// escapes and is never loaded or stored as another type.
func promotable(f *ir.Function, in *ir.Instr) bool {
	if in.Op != ir.OpAlloca {
		return false
	}
	u := ir.UsesOfAlloca(f, in)
	return u.Loads > 0 && !u.Escapes && !u.Retyped
}

// countPromotable counts f's promotable allocas, allocating nothing.
func countPromotable(f *ir.Function) (int, bool) {
	n := 0
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if promotable(f, in) {
			n++
		}
	})
	return n, n > 0
}

// promoted returns the position of the promoted alloca v is, or -1.
func (p *promoter) promoted(v ir.Value) int {
	if a, ok := v.(*ir.Instr); ok && a.Op == ir.OpAlloca {
		return slices.Index(p.allocas, a)
	}
	return -1
}

// run promotes p.allocas. A walk of each block resolves the block
// live-in of every alloca loaded before the block stores it (which may
// insert phis), in layout order; every use of a load then takes the
// load's value, and the loads, the stores and the allocas go.
func (p *promoter) run() {
	for bi, b := range p.f.Blocks {
		instrs := b.Instrs // readVar may put a phi in front of b's
		for ii, in := range instrs {
			if in.Op != ir.OpLoad {
				continue
			}
			if ai := p.promoted(in.Args[0]); ai >= 0 && storedBefore(instrs[:ii], p.allocas[ai]) == nil {
				p.readVar(ai, bi)
			}
		}
	}
	p.f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		for i, arg := range in.Args {
			in.Args[i] = p.resolve(arg)
		}
		for i := range in.Incs {
			in.Incs[i].Val = p.resolve(in.Incs[i].Val)
		}
	})
	for _, b := range p.f.Blocks {
		b.Instrs = slices.DeleteFunc(b.Instrs, func(in *ir.Instr) bool {
			gone := in.Op == ir.OpLoad && p.promoted(in.Args[0]) >= 0 ||
				in.Op == ir.OpStore && p.promoted(in.Args[1]) >= 0 ||
				p.promoted(in) >= 0
			if gone {
				in.Parent = nil
			}
			return gone
		})
	}
	p.cleanTrivialPhis()
}

// resolve returns what v stands for once the promoted loads are gone:
// a load of a promoted alloca takes the value of the block's last store
// to it before the load, or else the block's live-in. That value may
// itself be such a load (a store of a loaded value), so the chain is
// chased.
func (p *promoter) resolve(v ir.Value) ir.Value {
	for {
		load, ok := v.(*ir.Instr)
		if !ok || load.Op != ir.OpLoad {
			return v
		}
		ai := p.promoted(load.Args[0])
		if ai < 0 {
			return v
		}
		b := load.Parent
		if v = storedBefore(b.Instrs[:slices.Index(b.Instrs, load)], p.allocas[ai]); v == nil {
			v = p.blockIn[ai*len(p.f.Blocks)+p.cfg.Index(b)].v
		}
	}
}

// storedBefore returns what the last store to alloca a in instrs
// stored, or nil when none does.
func storedBefore(instrs []*ir.Instr, a *ir.Instr) ir.Value {
	for j := len(instrs) - 1; j >= 0; j-- {
		if st := instrs[j]; st.Op == ir.OpStore && st.Args[1] == ir.Value(a) {
			return st.Args[0]
		}
	}
	return nil
}

// readVar returns the live-in value of alloca ai at block bi, inserting
// phis at joins. The phi is recorded before visiting predecessors so
// loops terminate (Braun et al.).
func (p *promoter) readVar(ai, bi int) ir.Value {
	a, in := p.allocas[ai], &p.blockIn[ai*len(p.f.Blocks)+bi]
	if in.asked {
		if in.v == nil {
			// Back round a cycle of single-predecessor blocks with no
			// store on it (only the entry or unreachable blocks can
			// close one): a is never set there.
			in.v = &ir.Undef{Ty: a.AllocTy}
		}
		return in.v
	}
	in.asked = true // on the way round, see above
	// Value flowing out of a predecessor: the last store in it, else
	// its own live-in.
	outOf := func(pi int) ir.Value {
		if last := storedBefore(p.f.Blocks[pi].Instrs, a); last != nil {
			return last
		}
		return p.readVar(ai, pi)
	}
	preds := p.cfg.Preds(bi)
	switch len(preds) {
	case 0:
		// Entry with no store before the load: uninitialized.
		in.v = &ir.Undef{Ty: a.AllocTy}
		return in.v
	case 1:
		v := outOf(int(preds[0]))
		in.v = v
		return v
	}
	b := p.f.Blocks[bi]
	p.nextID++
	phi := &ir.Instr{Op: ir.OpPhi, NameStr: "m2r" + strconv.Itoa(p.nextID), Ty: a.AllocTy, Parent: b,
		Incs: make([]ir.Incoming, 0, len(preds))}
	// A list of its own: b's may be a window of a slab.
	instrs := make([]*ir.Instr, len(b.Instrs)+1)
	instrs[0] = phi
	copy(instrs[1:], b.Instrs)
	b.Instrs = instrs
	in.v = phi // break cycles before recursing
	for _, pi := range preds {
		phi.Incs = append(phi.Incs, ir.Incoming{Val: outOf(int(pi)), Block: p.f.Blocks[pi]})
	}
	return phi
}

// cleanTrivialPhis removes phis whose incomings are all the same
// value (or the phi itself), iterating to a fixpoint.
func (p *promoter) cleanTrivialPhis() {
	for {
		changed := false
		for _, b := range p.f.Blocks {
			for i := 0; i < len(b.Instrs) && b.Instrs[i].Op == ir.OpPhi; {
				phi := b.Instrs[i]
				var same ir.Value
				trivial := true
				for _, inc := range phi.Incs {
					if inc.Val == ir.Value(phi) || inc.Val == same {
						continue
					}
					if same != nil {
						trivial = false
						break
					}
					same = inc.Val
				}
				if !trivial || same == nil {
					i++
					continue
				}
				ir.ReplaceAllUses(p.f, phi, same)
				ir.RemoveInstr(phi)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}
