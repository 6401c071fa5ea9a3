package ir

import "fmt"

// Builder constructs functions instruction-by-instruction with
// automatic SSA naming, in the style of LLVM's IRBuilder.
type Builder struct {
	Fn     *Function
	cur    *Block
	nextID int
}

// NewBuilder returns a builder for a fresh function with the given
// signature. Parameters are named numerically ("%0", "%1", ...) as
// clang does, and the numeric counter continues into instruction
// results.
func NewBuilder(name string, retTy Type, paramTys ...Type) *Builder {
	f := &Function{NameStr: name, RetTy: retTy}
	b := &Builder{Fn: f}
	for _, pt := range paramTys {
		p := &Param{NameStr: fmt.Sprint(b.nextID), Ty: pt, Noundef: true}
		b.nextID++
		f.Params = append(f.Params, p)
	}
	return b
}

// Param returns the i-th function parameter.
func (b *Builder) Param(i int) *Param { return b.Fn.Params[i] }

// NewBlock creates a block with the given label (or the next numeric
// label if empty) and makes it current.
func (b *Builder) NewBlock(label string) *Block {
	if label == "" {
		label = fmt.Sprint(b.nextID)
		b.nextID++
	}
	blk := &Block{NameStr: label, Parent: b.Fn}
	b.Fn.Blocks = append(b.Fn.Blocks, blk)
	b.cur = blk
	return blk
}

// SetBlock makes blk the current insertion block.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Cur returns the current insertion block.
func (b *Builder) Cur() *Block { return b.cur }

func (b *Builder) nextName() string {
	n := fmt.Sprint(b.nextID)
	b.nextID++
	return n
}

func (b *Builder) insert(in *Instr) *Instr {
	if in.HasResult() && in.NameStr == "" {
		in.NameStr = b.nextName()
	}
	return b.cur.appendInstr(in)
}

// Bin emits a binary instruction with no flags.
func (b *Builder) Bin(op Opcode, x, y Value) *Instr {
	return b.BinF(op, x, y, Flags{})
}

// BinF emits a binary instruction with the given flags.
func (b *Builder) BinF(op Opcode, x, y Value, fl Flags) *Instr {
	return b.insert(&Instr{Op: op, Ty: x.Type(), Args: []Value{x, y}, Flags: fl})
}

// ICmp emits an integer comparison producing i1.
func (b *Builder) ICmp(p Pred, x, y Value) *Instr {
	return b.insert(&Instr{Op: OpICmp, Pred: p, Ty: I1, Args: []Value{x, y}})
}

// Select emits a select instruction.
func (b *Builder) Select(c, t, f Value) *Instr {
	return b.insert(&Instr{Op: OpSelect, Ty: t.Type(), Args: []Value{c, t, f}})
}

// Cast emits zext/sext/trunc of x to type to.
func (b *Builder) Cast(op Opcode, x Value, to Type) *Instr {
	return b.insert(&Instr{Op: op, Ty: to, Args: []Value{x}})
}

// Alloca emits a stack allocation of elemTy, yielding a ptr.
func (b *Builder) Alloca(elemTy Type) *Instr {
	return b.insert(&Instr{Op: OpAlloca, Ty: ptrTy, AllocTy: elemTy})
}

// Load emits a typed load from ptr.
func (b *Builder) Load(ty Type, ptr Value) *Instr {
	return b.insert(&Instr{Op: OpLoad, Ty: ty, Args: []Value{ptr}})
}

// Store emits a store of val to ptr.
func (b *Builder) Store(val, ptr Value) *Instr {
	return b.insert(&Instr{Op: OpStore, Ty: Void, Args: []Value{val, ptr}})
}

// Call emits a call to callee with the given return type and args.
func (b *Builder) Call(retTy Type, callee string, args ...Value) *Instr {
	return b.insert(&Instr{Op: OpCall, Ty: retTy, Callee: callee, Args: args})
}

// Ret emits a return of v (or a void return when v is nil).
func (b *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, Ty: Void}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.insert(in)
}

// Br emits an unconditional branch to dst.
func (b *Builder) Br(dst *Block) *Instr {
	return b.insert(&Instr{Op: OpBr, Ty: Void, Succs: []*Block{dst}})
}

// CondBr emits a conditional branch on cond.
func (b *Builder) CondBr(cond Value, ifTrue, ifFalse *Block) *Instr {
	return b.insert(&Instr{Op: OpCondBr, Ty: Void, Args: []Value{cond}, Succs: []*Block{ifTrue, ifFalse}})
}

// Switch emits a switch terminator with a default destination and
// (value, destination) cases.
func (b *Builder) Switch(v Value, def *Block, cases []*Const, dests []*Block) *Instr {
	in := &Instr{Op: OpSwitch, Ty: Void, Args: []Value{v}, Cases: cases}
	in.Succs = append([]*Block{def}, dests...)
	return b.insert(in)
}
