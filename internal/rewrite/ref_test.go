package rewrite

import (
	"fmt"
	"strings"
	"testing"

	"veriopt/internal/ir"
)

// refMem2reg is mem2reg as it was before the promoter kept its state in
// slices indexed by position: a map from (alloca, block) to the block's
// live-in, a promoted set, a map from each load to its value, a running
// map per block and lists of the loads and stores to delete.
// TestMem2RegMatchesReference holds the promoter to it.
func refMem2reg(f *ir.Function) bool {
	g := ir.CloneFunc(f)
	p := &refPromoter{
		f:       g,
		cfg:     ir.NewCFG(g),
		blockIn: map[refPromKey]ir.Value{},
		nextID:  0,
	}
	allocas, _ := refPromotableAllocas(g)
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

// refPromKey identifies the live-in value of one alloca at one block.
type refPromKey struct {
	a *ir.Instr
	b *ir.Block
}

type refPromoter struct {
	f *ir.Function
	// cfg is of f as cloned: run moves instructions, never blocks or
	// terminators.
	cfg     ir.CFG
	blockIn map[refPromKey]ir.Value // resolved block-entry values
	nextID  int
}

// refPromotableAllocas finds the allocas that are loaded, never escape
// and are never loaded or stored as another type, in layout order; it
// allocates only for one it finds.
func refPromotableAllocas(f *ir.Function) ([]*ir.Instr, bool) {
	var out []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if in.Op != ir.OpAlloca {
			return
		}
		if u := ir.UsesOfAlloca(f, in); u.Loads > 0 && !u.Escapes && !u.Retyped {
			out = append(out, in)
		}
	})
	return out, len(out) > 0
}

func (p *refPromoter) run(allocas []*ir.Instr) {
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
func (p *refPromoter) readVar(a *ir.Instr, b *ir.Block) ir.Value {
	key := refPromKey{a, b}
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
func (p *refPromoter) cleanTrivialPhis() {
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

// TestMem2RegMatchesReference: on every state the rules golden asks
// about (the seed-42 corpus, what mem2reg and the extra rules make of
// it, the hand-written inputs) and on loopsSrc, extra-mem2reg fires
// when the reference does and leaves the same text, phi names included.
func TestMem2RegMatchesReference(t *testing.T) {
	fired := 0
	states := append(goldenStates(t, All()), parse(t, loopsSrc))
	for _, f := range states {
		g, r := ir.CloneFunc(f), ir.CloneFunc(f)
		_, match := refPromotableAllocas(r) // the rule's finder, before refMem2reg
		got, want := Mem2Reg.Apply(g, nil), match && refMem2reg(r)
		if got != want {
			t.Fatalf("extra-mem2reg fired %v, the reference %v, on:\n%s", got, want, ir.FuncString(f))
		}
		if gs, rs := ir.FuncString(g), ir.FuncString(r); gs != rs {
			t.Fatalf("extra-mem2reg leaves:\n%s\nthe reference:\n%s\nfrom:\n%s", gs, rs, ir.FuncString(f))
		}
		if got {
			fired++
		}
	}
	if g := ir.CloneFunc(parse(t, loopsSrc)); !Mem2Reg.Apply(g, nil) || !strings.Contains(ir.FuncString(g), " phi ") || !strings.Contains(ir.FuncString(g), "undef") {
		t.Errorf("extra-mem2reg leaves loopsSrc without a phi or an undef:\n%s", ir.FuncString(g))
	}
	if fired < 500 {
		t.Errorf("extra-mem2reg fired on %d of %d states; the test is close to vacuous", fired, len(states))
	}
}

// loopsSrc has what the corpus rarely holds: a join block that stores
// an alloca before loading it, a loop-carried value and an alloca read
// before any store.
const loopsSrc = `define i32 @loops(i32 noundef %0) {
entry:
  %x = alloca i32
  %y = alloca i32
  %u = alloca i32
  store i32 0, ptr %x
  store i32 %0, ptr %y
  br label %loop

loop:
  %a = load i32, ptr %y
  store i32 %a, ptr %x
  %b = load i32, ptr %x
  %c = add i32 %b, 1
  store i32 %c, ptr %y
  %d = icmp ult i32 %c, 100
  br i1 %d, label %loop, label %out

out:
  %r = load i32, ptr %x
  %v = load i32, ptr %u
  %s = add i32 %r, %v
  ret i32 %s
}
`
