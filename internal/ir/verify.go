package ir

import (
	"fmt"
	"slices"
)

// verifyError is a structural well-formedness violation.
type verifyError struct {
	fn  string
	msg string
}

func (e *verifyError) Error() string {
	return fmt.Sprintf("function @%s: %s", e.fn, e.msg)
}

// VerifyModule checks structural well-formedness of every function in
// the module and that every called symbol resolves to a definition or
// declaration with a matching signature.
func VerifyModule(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return err
		}
		var cerr error
		f.ForEachInstr(func(_ *Block, in *Instr) {
			if cerr != nil || in.Op != OpCall {
				return
			}
			if g := m.Func(in.Callee); g != nil {
				if !g.RetTy.Equal(in.Ty) || len(g.Params) != len(in.Args) {
					cerr = &verifyError{f.NameStr, "call to @" + in.Callee + " signature mismatch"}
				}
				return
			}
			if d := m.decl(in.Callee); d != nil {
				if !d.RetTy.Equal(in.Ty) || len(d.ParamTys) != len(in.Args) {
					cerr = &verifyError{f.NameStr, "call to @" + in.Callee + " signature mismatch"}
				}
				return
			}
			cerr = &verifyError{f.NameStr, "call to undefined symbol @" + in.Callee}
		})
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// VerifyFunc checks structural well-formedness of a single function:
// every block ends in exactly one terminator, every instruction has the
// operands and successors its opcode takes, branches and phis name
// blocks of this function, phis agree with CFG predecessors, types are
// consistent, SSA definitions dominate uses, and names are unique. A
// function it accepts can be printed, cloned, executed and keyed without
// a further look at its shape. f is only read.
func VerifyFunc(f *Function) error {
	fail := func(format string, args ...interface{}) error {
		return &verifyError{f.NameStr, fmt.Sprintf(format, args...)}
	}
	if len(f.Blocks) == 0 {
		return fail("no blocks")
	}

	// One table answers both "is this name taken" and, for the dominance
	// check, "where is this value defined": names are unique once this
	// loop is through, so a value is the function's own exactly when its
	// name leads back to it. Blocks' names are in it too, past base.
	var startBuf [16]int32
	d := defs{f: f, starts: startBuf[:0], base: int32(len(f.Params) + f.NumInstrs())}
	d.names.reset(int(d.base) + len(f.Blocks))
	for i, p := range f.Params {
		pos, slot := d.find(p.NameStr)
		if pos >= 0 {
			return fail("duplicate name %%%s", p.NameStr)
		}
		d.names.put(slot, int32(i))
	}
	next := int32(0) // the next instruction's index in layout order
	for bi, b := range f.Blocks {
		pos, slot := d.names.find(b.NameStr, func(pos int32) bool { return pos >= d.base && f.Blocks[pos-d.base].NameStr == b.NameStr })
		if pos >= 0 {
			return fail("duplicate block %s", b.NameStr)
		}
		d.names.put(slot, d.base+int32(bi))
		if len(b.Instrs) == 0 {
			return fail("block %s is empty", b.NameStr)
		}
		d.starts = append(d.starts, next)
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fail("block %s does not end in a terminator", b.NameStr)
				}
				return fail("block %s has terminator before its end", b.NameStr)
			}
			// Phis must be grouped at the block head: the first one that
			// is not directly follows something else.
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return fail("block %s: phi %%%s not at block head", b.NameStr, in.NameStr)
			}
			if in.HasResult() {
				if in.NameStr == "" {
					return fail("unnamed %s result in block %s", in.Op, b.NameStr)
				}
				pos, slot := d.find(in.NameStr)
				if pos >= 0 {
					return fail("duplicate name %%%s", in.NameStr)
				}
				d.names.put(slot, int32(len(f.Params))+next)
			}
			next++
		}
	}

	if err := verifyShape(f, fail); err != nil {
		return err
	}
	if err := verifyTypes(f, fail); err != nil {
		return err
	}
	cfg := NewCFG(f)
	if cfg.foreign != nil {
		return fail("block %s branches to a block outside the function", cfg.foreign.NameStr)
	}
	for bi, b := range f.Blocks {
		preds := cfg.Preds(bi)
		for _, in := range b.Instrs {
			if in.Op != OpPhi {
				break
			}
			if !cfg.Reachable(bi) {
				// Nothing else is asked of dead code, but a clone or a
				// printed text of it still has to name its blocks.
				for _, inc := range in.Incs {
					if cfg.Index(inc.Block) < 0 {
						return fail("phi %%%s: incoming block %s is outside the function", in.NameStr, inc.Block.NameStr)
					}
				}
				continue
			}
			if len(in.Incs) != len(preds) {
				return fail("phi %%%s in %s has %d incomings for %d predecessors",
					in.NameStr, b.NameStr, len(in.Incs), len(preds))
			}
			for i, inc := range in.Incs {
				for _, prev := range in.Incs[:i] {
					if prev.Block == inc.Block {
						return fail("phi %%%s: duplicate incoming block %s", in.NameStr, inc.Block.NameStr)
					}
				}
				if pi := cfg.Index(inc.Block); pi < 0 || !slices.Contains(preds, int32(pi)) {
					return fail("phi %%%s: %s is not a predecessor of %s", in.NameStr, inc.Block.NameStr, b.NameStr)
				}
				if !inc.Val.Type().Equal(in.Ty) {
					return fail("phi %%%s: incoming type %s != phi type %s", in.NameStr, inc.Val.Type(), in.Ty)
				}
			}
		}
	}
	return verifyDominance(f, &cfg, &d, fail)
}

// defs finds where a name of f is defined: a position is a parameter's
// index, or the number of parameters plus an instruction's index in
// layout order; base plus a block's index is the block's.
type defs struct {
	f      *Function
	names  table
	base   int32
	starts []int32 // layout index of each block's first instruction, so far
}

// find returns the position named name, or -1, and its slot.
func (d *defs) find(name string) (int32, int) {
	return d.names.find(name, func(pos int32) bool {
		if pos >= d.base {
			return false
		}
		if int(pos) < len(d.f.Params) {
			return d.f.Params[pos].NameStr == name
		}
		in, _, _ := d.instr(pos)
		return in.NameStr == name
	})
}

// instr returns the instruction at pos, past the parameters, with its
// block and its index there.
func (d *defs) instr(pos int32) (*Instr, int32, int32) {
	k := pos - int32(len(d.f.Params))
	lo, hi := 0, len(d.starts) // the last block to start at or before k
	for hi-lo > 1 {
		if m := (lo + hi) / 2; d.starts[m] <= k {
			lo = m
		} else {
			hi = m
		}
	}
	return d.f.Blocks[lo].Instrs[k-d.starts[lo]], int32(lo), k - d.starts[lo]
}

// def returns where v is defined, ok false when v is not f's own: its
// name leads to a parameter, to another instruction or to nothing.
func (d *defs) def(v *Instr) (block, index int32, ok bool) {
	var in *Instr
	pos, _ := d.names.find(v.NameStr, func(pos int32) bool {
		switch {
		case pos >= d.base:
			return false
		case int(pos) < len(d.f.Params):
			return d.f.Params[pos].NameStr == v.NameStr
		}
		in, block, index = d.instr(pos)
		return in.NameStr == v.NameStr
	})
	return block, index, int(pos) >= len(d.f.Params) && in == v
}

// verifyShape checks that every instruction has the number of operands
// and successors its opcode takes and that no operand, successor, case
// or phi incoming is nil, so that the checks after it — and whoever
// takes the verifier's word — may index Args and Succs without looking.
func verifyShape(f *Function, fail func(string, ...interface{}) error) error {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			args, succs := 0, 0
			switch {
			case in.Op.IsBinary(), in.Op == OpICmp, in.Op == OpStore:
				args = 2
			case in.Op == OpSelect:
				args = 3
			case in.Op.IsCast(), in.Op == OpFreeze, in.Op == OpLoad:
				args = 1
			case in.Op == OpAlloca, in.Op == OpPhi, in.Op == OpUnreachable:
			case in.Op == OpCall:
				args = len(in.Args)
			case in.Op == OpRet:
				args = min(len(in.Args), 1)
			case in.Op == OpBr:
				succs = 1
			case in.Op == OpCondBr:
				args, succs = 1, 2
			case in.Op == OpSwitch:
				args, succs = 1, len(in.Succs) // verifyTypes counts them against the cases
			default:
				return fail("invalid opcode %d in block %s", int(in.Op), b.NameStr)
			}
			if len(in.Args) != args {
				return fail("%s in block %s has %d operands, wants %d", in.Op, b.NameStr, len(in.Args), args)
			}
			if in.Op.IsTerminator() && len(in.Succs) != succs {
				return fail("%s in block %s has %d successors, wants %d", in.Op, b.NameStr, len(in.Succs), succs)
			}
			for _, a := range in.Args {
				if a == nil || a.Type() == nil {
					return fail("%s in block %s has a nil or untyped operand", in.Op, b.NameStr)
				}
			}
			if slices.Contains(in.Succs, nil) || slices.Contains(in.Cases, nil) {
				return fail("%s in block %s has a nil successor or case", in.Op, b.NameStr)
			}
			for _, inc := range in.Incs {
				if inc.Val == nil || inc.Val.Type() == nil || inc.Block == nil {
					return fail("phi %%%s has a nil or untyped incoming", in.NameStr)
				}
			}
		}
	}
	return nil
}

func verifyTypes(f *Function, fail func(string, ...interface{}) error) error {
	var err error
	f.ForEachInstr(func(b *Block, in *Instr) {
		if err != nil {
			return
		}
		switch {
		case in.Op.IsBinary():
			if !in.Args[0].Type().Equal(in.Ty) || !in.Args[1].Type().Equal(in.Ty) {
				err = fail("%s %%%s: operand types do not match result type %s", in.Op, in.NameStr, in.Ty)
			}
			if _, ok := in.Ty.(IntType); !ok {
				err = fail("%s %%%s: non-integer type %s", in.Op, in.NameStr, in.Ty)
			}
		case in.Op == OpICmp:
			if !in.Args[0].Type().Equal(in.Args[1].Type()) {
				err = fail("icmp %%%s: operand types differ", in.NameStr)
			}
		case in.Op == OpSelect:
			if it, ok := in.Args[0].Type().(IntType); !ok || it.Bits != 1 {
				err = fail("select %%%s: condition not i1", in.NameStr)
			} else if !in.Args[1].Type().Equal(in.Ty) || !in.Args[2].Type().Equal(in.Ty) {
				err = fail("select %%%s: arm types do not match", in.NameStr)
			}
		case in.Op.IsCast():
			from, ok1 := in.Args[0].Type().(IntType)
			to, ok2 := in.Ty.(IntType)
			if !ok1 || !ok2 {
				err = fail("%s %%%s: non-integer cast", in.Op, in.NameStr)
				return
			}
			if in.Op == OpTrunc && to.Bits >= from.Bits {
				err = fail("trunc %%%s: i%d to i%d not narrowing", in.NameStr, from.Bits, to.Bits)
			}
			if in.Op != OpTrunc && to.Bits <= from.Bits {
				err = fail("%s %%%s: i%d to i%d not widening", in.Op, in.NameStr, from.Bits, to.Bits)
			}
		case in.Op == OpLoad:
			if !in.Args[0].Type().Equal(ptrTy) {
				err = fail("load %%%s: non-pointer address", in.NameStr)
			}
		case in.Op == OpStore:
			if !in.Args[1].Type().Equal(ptrTy) {
				err = fail("store in %s: non-pointer address", b.NameStr)
			}
		case in.Op == OpRet:
			if len(in.Args) == 0 {
				if _, isVoid := f.RetTy.(VoidType); !isVoid {
					err = fail("ret void in non-void function")
				}
			} else if !in.Args[0].Type().Equal(f.RetTy) {
				err = fail("ret type %s != function return type %s", in.Args[0].Type(), f.RetTy)
			}
		case in.Op == OpCondBr:
			if it, ok := in.Args[0].Type().(IntType); !ok || it.Bits != 1 {
				err = fail("conditional br in %s: condition not i1", b.NameStr)
			}
		case in.Op == OpSwitch:
			it, ok := in.Args[0].Type().(IntType)
			if !ok {
				err = fail("switch in %s: value not an integer", b.NameStr)
				return
			}
			if len(in.Succs) != len(in.Cases)+1 {
				err = fail("switch in %s: %d destinations for %d cases", b.NameStr, len(in.Succs), len(in.Cases))
				return
			}
			seen := map[uint64]bool{}
			for _, cc := range in.Cases {
				if !cc.Ty.Equal(it) {
					err = fail("switch in %s: case type %s != value type %s", b.NameStr, cc.Ty, it)
					return
				}
				if seen[cc.Val&it.Mask()] {
					err = fail("switch in %s: duplicate case %d", b.NameStr, cc.Signed())
					return
				}
				seen[cc.Val&it.Mask()] = true
			}
		}
	})
	return err
}

// verifyDominance checks that each use of an instruction result is
// dominated by its definition (with the usual phi-edge adjustment).
func verifyDominance(f *Function, cfg *CFG, d *defs, fail func(string, ...interface{}) error) error {
	for bi, b := range f.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		for i, in := range b.Instrs {
			if in.Op == OpPhi {
				for _, inc := range in.Incs {
					v, ok := inc.Val.(*Instr)
					if !ok {
						continue
					}
					block, _, own := d.def(v)
					if !own {
						return fail("phi %%%s references value defined outside function", in.NameStr)
					}
					// The incoming value must dominate the end of the
					// incoming edge's source block.
					if !cfg.Dominates(int(block), cfg.Index(inc.Block)) {
						return fail("phi %%%s: incoming %%%s does not dominate predecessor %s",
							in.NameStr, v.NameStr, inc.Block.NameStr)
					}
				}
				continue
			}
			for _, a := range in.Args {
				v, ok := a.(*Instr)
				if !ok {
					continue // params and constants dominate everything
				}
				block, index, own := d.def(v)
				switch {
				case !own:
					return fail("%%%s used in %s but defined outside function", v.NameStr, b.NameStr)
				case int(block) == bi:
					if int(index) >= i {
						return fail("%%%s used before definition in block %s", v.NameStr, b.NameStr)
					}
				case !cfg.Dominates(int(block), bi):
					return fail("definition of %%%s (block %s) does not dominate use in %s", v.NameStr, f.Blocks[block].NameStr, b.NameStr)
				}
			}
		}
	}
	return nil
}
