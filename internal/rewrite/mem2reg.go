package rewrite

import (
	"fmt"
	"math/rand"
	"slices"

	"veriopt/internal/ir"
)

// mem2reg promotes non-escaping allocas with consistent access types
// to SSA values, inserting phi nodes where paths join — the
// "mem2reg-like behaviour" the paper observes emerging during the
// latency stage (§V-E, Fig. 10). The construction follows Braun et
// al.'s simple-and-efficient SSA algorithm: block-local defs first,
// then recursive lookups that pre-install phis to break cycles.
//
// It promotes on a copy and moves the result into f only once it
// verifies, so the rule is safe to expose as a policy action and false
// leaves f untouched, every instruction where it was. That copy is the
// one a rule makes: its finder, promotableAllocas, reads f only.
func mem2reg(f *ir.Function, _ []*ir.Instr, _ *rand.Rand) bool {
	g := ir.CloneFunc(f)
	p := &promoter{
		f:       g,
		cfg:     ir.NewCFG(g),
		blockIn: map[promKey]ir.Value{},
		nextID:  0,
	}
	allocas, _ := promotableAllocas(g) // the match is f's allocas; these are the copy's
	p.run(allocas)
	if err := ir.VerifyFunc(g); err != nil {
		return false
	}
	*f = *g
	for _, b := range f.Blocks {
		b.Parent = f
	}
	return true
}

// promKey identifies the live-in value of one alloca at one block.
type promKey struct {
	a *ir.Instr
	b *ir.Block
}

type promoter struct {
	f *ir.Function
	// cfg is of f as cloned: run moves instructions, never blocks or
	// terminators.
	cfg     ir.CFG
	blockIn map[promKey]ir.Value // resolved block-entry values
	nextID  int
}

// promotableAllocas finds non-escaping allocas whose loads and stores
// all agree with the allocated element type and that are loaded at
// least once, in layout order; it allocates only for one it finds.
func promotableAllocas(f *ir.Function) ([]*ir.Instr, bool) {
	var out []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpAlloca && promotable(f, in) {
			out = append(out, in)
		}
	})
	return out, len(out) > 0
}

// promotable reports whether alloca a is loaded, only ever as its
// allocated type, and otherwise only stored to as that type: no other
// use of its address.
func promotable(f *ir.Function, a *ir.Instr) bool {
	loaded := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				if in.Args[0] == ir.Value(a) {
					if !in.Ty.Equal(a.AllocTy) {
						return false
					}
					loaded = true
				}
			case ir.OpStore:
				if in.Args[0] == ir.Value(a) { // the address stored somewhere
					return false
				}
				if in.Args[1] == ir.Value(a) && !in.Args[0].Type().Equal(a.AllocTy) {
					return false
				}
			default:
				if slices.Contains(in.Args, ir.Value(a)) {
					return false
				}
				for _, inc := range in.Incs {
					if inc.Val == ir.Value(a) {
						return false
					}
				}
			}
		}
	}
	return loaded
}

func (p *promoter) run(allocas []*ir.Instr) {
	promoted := map[*ir.Instr]bool{}
	for _, a := range allocas {
		promoted[a] = true
	}
	// Walk each block tracking the running definition of each alloca;
	// loads become the running value (or the block live-in), stores
	// update it and are deleted afterwards.
	type pendingLoad struct {
		load *ir.Instr
		a    *ir.Instr
	}
	var deadStores, deadLoads []*ir.Instr
	replacements := map[*ir.Instr]ir.Value{}
	var pendings []pendingLoad
	for _, b := range p.f.Blocks {
		running := map[*ir.Instr]ir.Value{}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				a, ok := in.Args[0].(*ir.Instr)
				if !ok || !promoted[a] {
					continue
				}
				if v, have := running[a]; have {
					replacements[in] = v
				} else {
					pendings = append(pendings, pendingLoad{load: in, a: a})
				}
				deadLoads = append(deadLoads, in)
			case ir.OpStore:
				a, ok := in.Args[1].(*ir.Instr)
				if !ok || !promoted[a] {
					continue
				}
				running[a] = in.Args[0]
				deadStores = append(deadStores, in)
			}
		}
	}
	// Resolve block live-ins (may insert phis). Loads pending in the
	// same block before any store see the block-entry value.
	for _, pl := range pendings {
		replacements[pl.load] = p.readVar(pl.a, pl.load.Parent)
	}
	// Apply replacements; a replacement may itself be a replaced load
	// (store of a loaded value), so chase the chain.
	resolve := func(v ir.Value) ir.Value {
		for {
			in, ok := v.(*ir.Instr)
			if !ok {
				return v
			}
			next, replaced := replacements[in]
			if !replaced {
				return v
			}
			v = next
		}
	}
	p.f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		for i, arg := range in.Args {
			in.Args[i] = resolve(arg)
		}
		for i := range in.Incs {
			in.Incs[i].Val = resolve(in.Incs[i].Val)
		}
	})
	for _, in := range deadLoads {
		ir.RemoveInstr(in)
	}
	for _, in := range deadStores {
		ir.RemoveInstr(in)
	}
	for a := range promoted {
		ir.RemoveInstr(a)
	}
	p.cleanTrivialPhis()
}

// readVar returns the live-in value of alloca a at block b, inserting
// phis at joins. The phi is recorded before visiting predecessors so
// loops terminate (Braun et al.).
func (p *promoter) readVar(a *ir.Instr, b *ir.Block) ir.Value {
	key := promKey{a, b}
	if v, ok := p.blockIn[key]; ok {
		if v == nil {
			// Back round a cycle of single-predecessor blocks with no
			// store on it (only the entry or unreachable blocks can
			// close one): a is never set there.
			v = &ir.Undef{Ty: a.AllocTy}
			p.blockIn[key] = v
		}
		return v
	}
	// Value flowing out of a predecessor: the last store in it, else
	// its own live-in.
	outOf := func(pred *ir.Block) ir.Value {
		var last ir.Value
		for _, in := range pred.Instrs {
			if in.Op == ir.OpStore && in.Args[1] == ir.Value(a) {
				last = in.Args[0]
			}
		}
		if last != nil {
			return last
		}
		return p.readVar(a, pred)
	}
	preds := p.cfg.Preds(p.cfg.Index(b))
	switch len(preds) {
	case 0:
		// Entry with no store before the load: uninitialized.
		v := ir.Value(&ir.Undef{Ty: a.AllocTy})
		p.blockIn[key] = v
		return v
	case 1:
		p.blockIn[key] = nil // on the way round, see above
		v := outOf(p.f.Blocks[preds[0]])
		p.blockIn[key] = v
		return v
	}
	p.nextID++
	phi := &ir.Instr{Op: ir.OpPhi, NameStr: fmt.Sprintf("m2r%d", p.nextID), Ty: a.AllocTy, Parent: b}
	b.Instrs = append([]*ir.Instr{phi}, b.Instrs...)
	p.blockIn[key] = phi // break cycles before recursing
	for _, pi := range preds {
		pred := p.f.Blocks[pi]
		phi.Incs = append(phi.Incs, ir.Incoming{Val: outOf(pred), Block: pred})
	}
	return phi
}

// cleanTrivialPhis removes phis whose incomings are all the same
// value (or the phi itself), iterating to a fixpoint.
func (p *promoter) cleanTrivialPhis() {
	for {
		changed := false
		for _, b := range p.f.Blocks {
			for _, phi := range b.Phis() { // a copy: the loop removes from b.Instrs
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
