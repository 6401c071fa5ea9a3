// Package interp is a concrete interpreter for the IR subset with
// explicit poison and undefined-behaviour tracking. It is used for
// differential testing: an optimized function must refine the source
// function on every concrete input (source UB permits anything;
// source poison may be refined to any value; otherwise results must
// match).
package interp

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"veriopt/internal/ir"
)

// Val is a concrete runtime value: a bit pattern plus a poison flag.
type Val struct {
	Bits   uint64
	Poison bool
}

// p returns a poison value.
func p() Val { return Val{Poison: true} }

// V returns a non-poison value with the given bits.
func V(b uint64) Val { return Val{Bits: b} }

// Outcome summarizes one execution of a function.
type Outcome struct {
	// UB is true when execution triggered immediate undefined
	// behaviour (division by zero, branch on poison, etc.).
	UB bool
	// UBReason describes the UB trigger.
	UBReason string
	// Ret is the returned value (meaningless if UB, zero Val for void).
	Ret Val
	// Calls records the observable call trace: call site plus the
	// concrete arguments, in execution order.
	Calls []CallObs
}

// CallObs is one observed external call.
type CallObs struct {
	// Site is the call instruction: its Callee, and its Args' types,
	// which the Vals below do not carry.
	Site *ir.Instr
	Args []Val
}

// Config controls interpretation limits.
type Config struct {
	// maxSteps bounds executed instructions (guards against runaway
	// loops); exceeding it returns an error.
	maxSteps int
}

// DefaultConfig returns the standard interpreter limits.
func DefaultConfig() Config { return Config{maxSteps: 10000} }

// errStepLimit is returned when execution exceeds MaxSteps.
var errStepLimit = fmt.Errorf("interp: step limit exceeded")

// Run executes f on the given argument values.
func Run(f *ir.Function, args []Val, cfg Config) (*Outcome, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("interp: %d args for %d params", len(args), len(f.Params))
	}
	if cfg.maxSteps == 0 {
		cfg.maxSteps = 10000
	}
	out := &Outcome{}
	for i, p := range f.Params {
		if p.Noundef && args[i].Poison {
			// Passing poison/undef to a noundef parameter is immediate UB
			// in LLVM; callers of Run should not do it, but be safe.
			out.UB = true
			out.UBReason = "poison passed to noundef parameter"
			return out, nil
		}
	}
	if len(f.Blocks) == 0 {
		return nil, fmt.Errorf("interp: function has no blocks")
	}
	var buf slabs
	prog := lower(f, &buf)
	for i, a := range args {
		if it, ok := f.Params[i].Ty.(ir.IntType); ok {
			a.Bits &= it.Mask()
		}
		prog.vals[prog.params+int32(i)] = a
	}
	if err := prog.exec(out, cfg.maxSteps); err != nil {
		return nil, err
	}
	return out, nil
}

// program is f lowered for one run. Its ops are each block's
// instructions in layout order, phis left out, up to the first
// terminator (or an op that fails for falling off the block's end),
// then the stubs of the edges that assign phis or fail: the phis of a
// block are assigned on the edge into it, so no op searches for a
// predecessor, a block or a value. An operand is a slot of vals:
//
//	[0, n)             results, by the instruction's layout position
//	n, n+1, n+2        the zero Val (anything defined nowhere, an
//	                   unknown pointer), poison (undef too), a global's
//	                   address
//	params ...         the arguments, by parameter index
//	cells ...          one per alloca, in layout order: what it holds
//	scratch ...        a block's phis, read before any is assigned
//	after those        constants, masked to their width
type program struct {
	f               *ir.Function
	ops             []op
	vals            []Val
	lists           []int32     // call arguments, phi sources, switch tables
	sites           []*ir.Instr // call instructions
	entry           int32       // the pc the run starts at
	params, scratch int32
}

// slabs is what a program the size of 99 % of the corpus's functions
// is carved from, on Run's stack: the labeller lowers each of them 16
// times, and this keeps that from being most of the garbage its set-up
// makes. A larger slab comes from the heap.
type slabs struct {
	tab   [64]int32
	ops   [64]op
	vals  [64]Val
	lists [32]int32
	sites [8]*ir.Instr
}

// room returns n elements of buf, or of a new slice when buf is
// shorter; buf must be zero, as a fresh one is.
func room[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// An op is one step of a program: an instruction's opcode or one of
// the pseudo-ops below. dst is the result's slot; what a, b and c hold
// depends on the code:
//
//	binary, icmp        a, b: operands
//	select              a: condition; b, c: arms
//	casts, freeze       a: operand
//	alloca              b: its cell
//	load                a: the address's slot; b: the cell
//	store               a: value; b: the address's slot; c: the cell
//	call                lists[a:b]: arguments; sites[c]; dst -1 if void
//	ret                 a: value, -1 if void
//	br                  a: target
//	condbr              a: condition; b, c: targets
//	switch              a: value; lists[b]: default target, then (case
//	                    slot, target) pairs up to lists[c]
//	opPhis              lists[a:b]: the sources of the phis from dst on; c: target
//	opTrap, opFail      pred: the fault; a, b: where, as fault reads them
//
// An address's slot is an alloca's result, which is non-zero once the
// alloca has run; a pointer that is no alloca of f reads the zero slot.
type op struct {
	code    int8  // an ir.Opcode
	it, w   uint8 // the operands' width; the result's (a pointer's is 64, a switch's its operand's)
	pred    uint8 // an ir.Pred, or a fault
	flags   ir.Flags
	dst     int32
	a, b, c int32
}

// mask selects the low w bits.
func (o *op) mask() uint64 { return ^uint64(0) >> (64 - o.w) }

// ty is the operands' integer type.
func (o *op) ty() ir.IntType { return ir.IntType{Bits: int(o.it)} }

// The pseudo-ops. Every code from opTrap up stands for an instruction
// and counts a step; the two below it are edges between blocks and the
// end of a block that has no terminator, and count none.
const (
	opTrap ir.Opcode = -1 - iota // an instruction that is an error when reached
	opPhis
	opFail
)

// What an opTrap or opFail op fails with.
const (
	faultOp       = iota // a: the opcode
	faultICmp            // an icmp on non-integer operands
	faultNoTerm          // a: the block
	faultOutside         // a: the block that branches
	faultIncoming        // a: the block, b: the phi's index in it
)

// fault is the error of an opTrap or opFail op.
func (prog *program) fault(o *op) error {
	switch o.pred {
	case faultOp:
		return fmt.Errorf("interp: unhandled op %v", ir.Opcode(o.a))
	case faultICmp:
		return errors.New("interp: icmp on non-integer operands")
	case faultNoTerm:
		return fmt.Errorf("interp: block %s does not end in a terminator", prog.f.Blocks[o.a].NameStr)
	case faultOutside:
		return fmt.Errorf("interp: block %s branches to a block outside the function", prog.f.Blocks[o.a].NameStr)
	}
	return fmt.Errorf("interp: phi %%%s has no incoming for predecessor", prog.f.Blocks[o.a].Instrs[o.b].NameStr)
}

// exec runs prog from its entry, recording into out.
func (prog *program) exec(out *Outcome, maxSteps int) error {
	ops, vals, lists, sites := prog.ops, prog.vals, prog.lists, prog.sites
	steps, cells := 0, 0
	ub := func(reason string) error {
		out.UB, out.UBReason = true, reason
		return nil
	}
	for pc := prog.entry; ; {
		o := &ops[pc]
		pc++
		code := ir.Opcode(o.code)
		if code >= opTrap {
			if steps++; steps > maxSteps {
				return errStepLimit
			}
		}
		switch code {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
			v, reason := binop(o, vals[o.a], vals[o.b])
			if reason != "" {
				return ub(reason)
			}
			vals[o.dst] = v
		case ir.OpICmp:
			x, y := vals[o.a], vals[o.b]
			v := p()
			if !x.Poison && !y.Poison {
				v = V(boolBit(icmp(ir.Pred(o.pred), x.Bits, y.Bits, o.ty())))
			}
			vals[o.dst] = v
		case ir.OpSelect:
			c, v := vals[o.a], vals[o.c]
			if c.Poison {
				v = p()
			} else if c.Bits&1 == 1 {
				v = vals[o.b]
			}
			vals[o.dst] = v
		case ir.OpZExt:
			vals[o.dst] = vals[o.a] // already masked
		case ir.OpSExt:
			v := vals[o.a]
			if !v.Poison {
				v = V(signExtend(v.Bits, o.ty()) & o.mask())
			}
			vals[o.dst] = v
		case ir.OpTrunc:
			v := vals[o.a]
			if !v.Poison {
				v = V(v.Bits & o.mask())
			}
			vals[o.dst] = v
		case ir.OpFreeze:
			v := vals[o.a]
			if v.Poison {
				// Freeze picks an arbitrary value; zero is a valid choice
				// and deterministic.
				v = V(0)
			}
			vals[o.dst] = v
		case ir.OpAlloca:
			// A re-executed alloca resets its cell; the fake address
			// follows the number of cells live at that moment.
			if vals[o.dst].Bits == 0 {
				cells++
			}
			vals[o.b] = p() // an uninitialized load yields undef, modeled as poison
			vals[o.dst] = V(uint64(0x1000 + cells*16))
		case ir.OpLoad:
			if vals[o.a].Bits == 0 {
				return ub("load from unknown pointer")
			}
			v := vals[o.b]
			if !v.Poison {
				v.Bits &= o.mask()
			}
			vals[o.dst] = v
		case ir.OpStore:
			if vals[o.b].Bits == 0 {
				return ub("store to unknown pointer")
			}
			vals[o.c] = vals[o.a]
		case ir.OpCall:
			args := make([]Val, o.b-o.a)
			for i, s := range lists[o.a:o.b] {
				args[i] = vals[s]
			}
			out.Calls = append(out.Calls, CallObs{Site: sites[o.c], Args: args})
			if o.dst >= 0 {
				// A value derived from a hash of the arguments, so that
				// equal call sites yield equal results within a run.
				vals[o.dst] = V(hashCall(sites[o.c].Callee, args) & o.mask())
			}
		case ir.OpRet:
			if o.a >= 0 {
				out.Ret = vals[o.a]
			}
			return nil
		case ir.OpBr:
			pc = o.a
		case ir.OpCondBr:
			c := vals[o.a]
			if c.Poison {
				return ub("branch on poison")
			}
			pc = o.c
			if c.Bits&1 == 1 {
				pc = o.b
			}
		case ir.OpSwitch:
			x := vals[o.a]
			if x.Poison {
				return ub("switch on poison")
			}
			pc = lists[o.b]
			bits := x.Bits & o.mask()
			for i := o.b + 1; i < o.c; i += 2 {
				if bits == vals[lists[i]].Bits {
					pc = lists[i+1]
					break
				}
			}
		case ir.OpUnreachable:
			return ub("reached unreachable")
		case opPhis:
			// All of a block's phis read before any is assigned.
			tmp := vals[prog.scratch : prog.scratch+o.b-o.a]
			for i, s := range lists[o.a:o.b] {
				tmp[i] = vals[s]
			}
			copy(vals[o.dst:], tmp)
			pc = o.c
		case opTrap, opFail:
			return prog.fault(o)
		}
	}
}

// lowering is the state of lower: the program, how much of each of
// its slabs is filled, and per block of f its first op and the layout
// position of its first instruction. It writes into the slabs only by
// index, so that slabs on Run's stack stay there.
type lowering struct {
	*program
	nops, nvals, nlists, nsites int
	start, base                 []int32
	zero, poison, global, cells int32
}

// lower turns f, which has a block, into a program carved from buf. It
// only reads f, and finds an operand by ir.Function.Position.
// What fails only when run — an unhandled op, an icmp on pointers, a
// block without a terminator, a phi without an incoming for the edge
// taken, a branch out of f or to no block — lowers to an op that fails
// with the same error at the same step.
func lower(f *ir.Function, buf *slabs) program {
	// One pass sizes the slabs and places every block. Each edge may
	// need a stub, the entry's too, and a stub reads a source, perhaps
	// a constant, per phi of its target.
	nb := len(f.Blocks)
	tab := room(buf.tab[:], 2*nb)
	start, base := tab[:nb], tab[nb:]
	n, body, edges, consts, lists, calls, cells, scratch := 0, 0, 1, 0, 0, 0, 0, 0
	phiSrcs := leadingPhis(f.Blocks[0])
	for bi, b := range f.Blocks {
		start[bi], base[bi] = int32(body), int32(n)
		n += len(b.Instrs)
		scratch = max(scratch, leadingPhis(b))
		ended := false
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpAlloca:
				cells++
			case ir.OpCall:
				lists, calls = lists+len(in.Args), calls+1
			case ir.OpSwitch:
				lists, consts = lists+1+2*len(in.Cases), consts+len(in.Cases)
			}
			for _, a := range in.Args {
				if _, ok := a.(*ir.Const); ok {
					consts++
				}
			}
			if ended || in.Op == ir.OpPhi {
				continue
			}
			body++
			if ended = in.Op.IsTerminator(); ended {
				for i := range edgesOut(in) {
					edges++
					if t := at(in.Succs, i); t != nil {
						phiSrcs += leadingPhis(t)
					}
				}
			}
		}
		if !ended {
			body++
		}
	}
	fixed := n + 3 + len(f.Params) + cells + scratch
	prog := program{
		f:     f,
		ops:   room(buf.ops[:], body+edges),
		vals:  room(buf.vals[:], fixed+consts+phiSrcs),
		lists: room(buf.lists[:], lists+phiSrcs),
		sites: room(buf.sites[:], calls),
	}
	l := lowering{program: &prog, nops: body, nvals: fixed, start: start, base: base}
	l.zero, l.poison, l.global = int32(n), int32(n+1), int32(n+2)
	l.params = int32(n + 3)
	l.cells = l.params + int32(len(f.Params))
	l.scratch = l.cells + int32(cells)
	l.vals[l.poison], l.vals[l.global] = p(), V(0x61000) // a global: opaque non-null address; never dereferenced

	l.entry = l.edge(0, -1, f.Blocks[0])
	pc := 0
	for bi, b := range f.Blocks {
		ended := false
		for ii, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			l.ops[pc] = l.instr(bi, ii, in)
			pc++
			if ended = in.Op.IsTerminator(); ended {
				break
			}
		}
		if !ended {
			l.ops[pc] = op{code: int8(opFail), pred: faultNoTerm, a: int32(bi)}
			pc++
		}
	}
	return prog
}

// leadingPhis is the number of phis at the head of b.
func leadingPhis(b *ir.Block) int {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == ir.OpPhi {
		n++
	}
	return n
}

// edgesOut is the number of edges the terminator in leaves by.
func edgesOut(in *ir.Instr) int {
	switch in.Op {
	case ir.OpBr:
		return 1
	case ir.OpCondBr:
		return 2
	case ir.OpSwitch:
		return 1 + len(in.Cases)
	}
	return 0
}

// at is s[i], or the zero value past its end.
func at[T any](s []T, i int) T {
	var zero T
	if i < len(s) {
		return s[i]
	}
	return zero
}

// width is t's bit width; anything but an integer is handled 64 bits
// wide, so that masking a pointer keeps every bit.
func width(t ir.Type) uint8 {
	if it, ok := t.(ir.IntType); ok {
		return uint8(it.Bits)
	}
	return 64
}

// list appends v to lists and returns its index.
func (l *lowering) list(v int32) int32 {
	l.lists[l.nlists] = v
	l.nlists++
	return int32(l.nlists - 1)
}

// stub appends o after the blocks and returns its pc.
func (l *lowering) stub(o op) int32 {
	l.ops[l.nops] = o
	l.nops++
	return int32(l.nops - 1)
}

// instr returns the op of in, at index ii of block bi.
func (l *lowering) instr(bi, ii int, in *ir.Instr) op {
	o := op{code: int8(in.Op), dst: l.base[bi] + int32(ii), w: width(in.Ty)}
	arg := func(i int) int32 { return l.slot(bi, ii, at(in.Args, i)) }
	argTy := func() ir.Type {
		if v := at(in.Args, 0); v != nil {
			return v.Type()
		}
		return nil
	}
	switch {
	case in.Op.IsBinary():
		o.it, o.flags, o.a, o.b = o.w, in.Flags, arg(0), arg(1)
	case in.Op == ir.OpICmp:
		it, ok := argTy().(ir.IntType)
		if !ok {
			return op{code: int8(opTrap), pred: faultICmp}
		}
		o.it, o.pred, o.a, o.b = uint8(it.Bits), uint8(in.Pred), arg(0), arg(1)
	case in.Op == ir.OpSelect:
		o.a, o.b, o.c = arg(0), arg(1), arg(2)
	case in.Op.IsCast(), in.Op == ir.OpFreeze:
		o.it, o.a = width(argTy()), arg(0)
	case in.Op == ir.OpAlloca:
		_, o.b = l.cell(bi, ii, in)
	case in.Op == ir.OpLoad:
		o.a, o.b = l.cell(bi, ii, at(in.Args, 0))
	case in.Op == ir.OpStore:
		o.a = arg(0)
		o.b, o.c = l.cell(bi, ii, at(in.Args, 1))
	case in.Op == ir.OpCall:
		o.a = int32(l.nlists)
		for i := range in.Args {
			l.list(arg(i))
		}
		o.b, o.c = int32(l.nlists), int32(l.nsites)
		l.sites[l.nsites] = in
		l.nsites++
		if !in.HasResult() {
			o.dst = -1
		}
	case in.Op == ir.OpRet:
		o.a = -1
		if len(in.Args) > 0 {
			o.a = arg(0)
		}
	case in.Op == ir.OpUnreachable:
	case in.Op == ir.OpBr:
		o.a = l.edge(bi, bi, at(in.Succs, 0))
	case in.Op == ir.OpCondBr:
		o.a, o.b, o.c = arg(0), l.edge(bi, bi, at(in.Succs, 0)), l.edge(bi, bi, at(in.Succs, 1))
	case in.Op == ir.OpSwitch:
		o.w, o.a, o.b = width(argTy()), arg(0), l.list(0)
		for _, cc := range in.Cases {
			l.list(l.konst(V(cc.Val & o.mask())))
			l.list(0)
		}
		o.c = int32(l.nlists)
		for i := range len(in.Cases) + 1 { // the targets, default first
			l.lists[o.b+2*int32(i)] = l.edge(bi, bi, at(in.Succs, i))
		}
	default:
		return op{code: int8(opTrap), pred: faultOp, a: int32(in.Op)}
	}
	return o
}

// edge returns the pc a branch from f's block from (-1 for the entry;
// the search for to starts at bi) to block to goes to: to's first op,
// or a stub that assigns to's phis or fails.
func (l *lowering) edge(bi, from int, to *ir.Block) int32 {
	j := l.f.BlockIndex(bi, to)
	if j < 0 {
		return l.stub(op{code: int8(opFail), pred: faultOutside, a: int32(from)})
	}
	phis := leadingPhis(to)
	if phis == 0 {
		return l.start[j]
	}
	// An incoming value is used at the end of its block, and found from
	// there.
	var pred *ir.Block
	end := 0
	if from >= 0 {
		pred = l.f.Blocks[from]
		end = len(pred.Instrs) - 1
	}
	first := l.nlists
	for i, phi := range to.Instrs[:phis] {
		k := slices.IndexFunc(phi.Incs, func(inc ir.Incoming) bool { return inc.Block == pred })
		if k < 0 {
			l.nlists = first
			return l.stub(op{code: int8(opFail), pred: faultIncoming, a: int32(j), b: int32(i)})
		}
		l.list(l.slot(bi, end, phi.Incs[k].Val))
	}
	return l.stub(op{code: int8(opPhis), dst: l.base[j], a: int32(first), b: int32(l.nlists), c: l.start[j]})
}

// konst returns a new slot holding v.
func (l *lowering) konst(v Val) int32 {
	l.vals[l.nvals] = v
	l.nvals++
	return int32(l.nvals - 1)
}

// slot returns the slot operand v of the instruction at index ii of
// block bi reads.
func (l *lowering) slot(bi, ii int, v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		if bk, j := l.f.Position(bi, ii, x); bk >= 0 {
			return l.base[bk] + int32(j)
		}
	case *ir.Param:
		if i := slices.Index(l.f.Params, x); i >= 0 {
			return l.params + int32(i)
		}
	case *ir.Const:
		return l.konst(V(x.Val & x.Ty.Mask()))
	case *ir.Undef, *ir.Poison:
		// Model undef as poison for refinement purposes (conservative
		// but sound for the transformations we validate).
		return l.poison
	case *ir.GlobalRef:
		return l.global
	}
	return l.zero
}

// cell returns the slots of the address and the cell of the alloca v,
// named by the instruction at index ii of block bi, points to; a
// pointer that is no alloca of f gets the zero slot twice. The cells
// are in layout order, so an alloca's is the number of allocas before
// it.
func (l *lowering) cell(bi, ii int, v ir.Value) (addr, cell int32) {
	x, ok := v.(*ir.Instr)
	if !ok || x.Op != ir.OpAlloca {
		return l.zero, l.zero
	}
	bk, j := l.f.Position(bi, ii, x)
	if bk < 0 {
		return l.zero, l.zero
	}
	cell = l.cells
	for b, blk := range l.f.Blocks[:bk+1] {
		instrs := blk.Instrs
		if b == bk {
			instrs = instrs[:j]
		}
		for _, in := range instrs {
			if in.Op == ir.OpAlloca {
				cell++
			}
		}
	}
	return l.base[bk] + int32(j), cell
}

// binop computes a binary op, or the reason it is undefined behaviour.
func binop(o *op, x, y Val) (Val, string) {
	code, it, mask := ir.Opcode(o.code), o.ty(), o.mask()
	// Division UB must be checked even for poison operands? In LLVM,
	// udiv with poison divisor is immediate UB only if the divisor
	// *is* 0; poison makes the result poison but a poison divisor is
	// UB (division by poison is UB). We treat poison divisor as UB for
	// div/rem, matching Alive2.
	if code.IsDivRem() {
		if y.Poison {
			return p(), fmt.Sprintf("%s by poison divisor", code)
		}
		if y.Bits&mask == 0 {
			return p(), fmt.Sprintf("%s by zero", code)
		}
		if code == ir.OpSDiv || code == ir.OpSRem {
			sx := signExtend(x.Bits, it)
			sy := signExtend(y.Bits, it)
			if !x.Poison && int64(sy) == -1 && int64(sx) == minSigned(it) {
				return p(), "signed division overflow"
			}
		}
	}
	if x.Poison || y.Poison {
		return p(), ""
	}
	a, b := x.Bits&mask, y.Bits&mask
	var r uint64
	poison := false
	switch code {
	case ir.OpAdd:
		r = (a + b) & mask
		poison = o.flags.NUW && r < a || o.flags.NSW && signedAddOverflows(a, b, it)
	case ir.OpSub:
		r = (a - b) & mask
		poison = o.flags.NUW && b > a || o.flags.NSW && signedSubOverflows(a, b, it)
	case ir.OpMul:
		r = (a * b) & mask
		poison = o.flags.NUW && unsignedMulOverflows(a, b, it) || o.flags.NSW && signedMulOverflows(a, b, it)
	case ir.OpUDiv:
		r = a / b
		poison = o.flags.Exact && a%b != 0
	case ir.OpSDiv:
		sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
		r = uint64(sa/sb) & mask
		poison = o.flags.Exact && sa%sb != 0
	case ir.OpURem:
		r = a % b
	case ir.OpSRem:
		sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
		r = uint64(sa%sb) & mask
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		if b >= uint64(it.Bits) {
			return p(), ""
		}
		r = (a << b) & mask
		poison = o.flags.NUW && (r>>b) != a || o.flags.NSW && int64(signExtend(r, it))>>b != int64(signExtend(a, it))
	case ir.OpLShr:
		if b >= uint64(it.Bits) {
			return p(), ""
		}
		r = a >> b
		poison = o.flags.Exact && a&((1<<b)-1) != 0
	case ir.OpAShr:
		if b >= uint64(it.Bits) {
			return p(), ""
		}
		r = uint64(int64(signExtend(a, it))>>b) & mask
		poison = o.flags.Exact && a&((1<<b)-1) != 0
	}
	if poison {
		return p(), ""
	}
	return V(r & mask), ""
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func icmp(p ir.Pred, a, b uint64, it ir.IntType) bool {
	a &= it.Mask()
	b &= it.Mask()
	sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredUGT:
		return a > b
	case ir.PredUGE:
		return a >= b
	case ir.PredULT:
		return a < b
	case ir.PredULE:
		return a <= b
	case ir.PredSGT:
		return sa > sb
	case ir.PredSGE:
		return sa >= sb
	case ir.PredSLT:
		return sa < sb
	case ir.PredSLE:
		return sa <= sb
	}
	return false
}

func signExtend(v uint64, it ir.IntType) uint64 {
	v &= it.Mask()
	if it.Bits < 64 && v&it.SignBit() != 0 {
		v |= ^it.Mask()
	}
	return v
}

func minSigned(it ir.IntType) int64 {
	return int64(signExtend(it.SignBit(), it))
}

func maxSigned(it ir.IntType) int64 { return -minSigned(it) - 1 }

func signedAddOverflows(a, b uint64, it ir.IntType) bool {
	sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
	if it.Bits < 64 {
		sum := sa + sb
		return sum < minSigned(it) || sum > maxSigned(it)
	}
	sum := sa + sb // wraps deterministically in Go
	return (sa > 0 && sb > 0 && sum < 0) || (sa < 0 && sb < 0 && sum >= 0)
}

func signedSubOverflows(a, b uint64, it ir.IntType) bool {
	sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
	if it.Bits < 64 {
		d := sa - sb
		return d < minSigned(it) || d > maxSigned(it)
	}
	d := sa - sb
	return (sa >= 0 && sb < 0 && d < 0) || (sa < 0 && sb > 0 && d >= 0)
}

func unsignedMulOverflows(a, b uint64, it ir.IntType) bool {
	hi, lo := bits.Mul64(a, b)
	return hi != 0 || lo&^it.Mask() != 0
}

func signedMulOverflows(a, b uint64, it ir.IntType) bool {
	sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
	if sa == 0 || sb == 0 {
		return false
	}
	// Compute |sa|*|sb| in 128 bits and compare against the signed range.
	abs := func(v int64) uint64 {
		if v < 0 {
			return -uint64(v) // two's complement negate handles MinInt64
		}
		return uint64(v)
	}
	neg := (sa < 0) != (sb < 0)
	hi, lo := bits.Mul64(abs(sa), abs(sb))
	if hi != 0 {
		return true
	}
	if neg {
		return lo > uint64(maxSigned(it))+1 // down to -2^(n-1)
	}
	return lo > uint64(maxSigned(it))
}

func hashCall(callee string, args []Val) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range callee {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for _, a := range args {
		h = (h ^ a.Bits) * 1099511628211
		if a.Poison {
			h = (h ^ 0xdead) * 1099511628211
		}
	}
	return h
}
