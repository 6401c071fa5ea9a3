package ir

import (
	"fmt"
	"slices"
)

// Opcode identifies an instruction kind.
type Opcode int

// Instruction opcodes. Binary integer ops come first, then compares,
// selects, casts, memory, control flow.
const (
	opInvalid Opcode = iota

	// Binary integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem

	// Binary bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Compare and select.
	OpICmp
	OpSelect

	// Casts.
	OpZExt
	OpSExt
	OpTrunc

	// Memory.
	OpAlloca
	OpLoad
	OpStore

	// Other.
	OpCall
	OpFreeze
	OpPhi

	// Terminators.
	OpRet
	OpBr     // unconditional
	OpCondBr // conditional
	OpSwitch
	OpUnreachable
)

var opcodeNames = map[Opcode]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpSDiv: "sdiv", OpURem: "urem", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpICmp: "icmp", OpSelect: "select",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store",
	OpCall: "call", OpFreeze: "freeze", OpPhi: "phi",
	OpRet: "ret", OpBr: "br", OpCondBr: "br", OpSwitch: "switch",
	OpUnreachable: "unreachable",
}

// String returns the LLVM mnemonic for the opcode.
func (op Opcode) String() string {
	if s, ok := opcodeNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsBinary reports whether the opcode is a two-operand integer op.
func (op Opcode) IsBinary() bool { return op >= OpAdd && op <= OpAShr }

// IsDivRem reports whether the opcode is a division or remainder
// (which have immediate-UB semantics on zero divisors).
func (op Opcode) IsDivRem() bool { return op >= OpUDiv && op <= OpSRem }

// IsCast reports whether the opcode is an integer cast.
func (op Opcode) IsCast() bool { return op == OpZExt || op == OpSExt || op == OpTrunc }

// IsTerminator reports whether the opcode terminates a basic block.
func (op Opcode) IsTerminator() bool {
	return op == OpRet || op == OpBr || op == OpCondBr || op == OpSwitch || op == OpUnreachable
}

// IsCommutative reports whether operand order is irrelevant.
func (op Opcode) IsCommutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// Pred is an icmp predicate.
type Pred int

// icmp predicates, in LLVM order.
const (
	PredEQ Pred = iota
	PredNE
	PredUGT
	PredUGE
	PredULT
	PredULE
	PredSGT
	PredSGE
	PredSLT
	PredSLE
)

var predNames = [...]string{"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"}

// String returns the LLVM spelling of the predicate.
func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// predFromString parses a predicate spelling; ok is false if unknown.
func predFromString(s string) (Pred, bool) {
	for i, n := range predNames {
		if n == s {
			return Pred(i), true
		}
	}
	return 0, false
}

// Swapped returns the predicate with operand order exchanged
// (e.g. sgt -> slt).
func (p Pred) Swapped() Pred {
	switch p {
	case PredUGT:
		return PredULT
	case PredUGE:
		return PredULE
	case PredULT:
		return PredUGT
	case PredULE:
		return PredUGE
	case PredSGT:
		return PredSLT
	case PredSGE:
		return PredSLE
	case PredSLT:
		return PredSGT
	case PredSLE:
		return PredSGE
	}
	return p
}

// Inverse returns the logical negation of the predicate
// (e.g. eq -> ne, slt -> sge).
func (p Pred) Inverse() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredUGT:
		return PredULE
	case PredUGE:
		return PredULT
	case PredULT:
		return PredUGE
	case PredULE:
		return PredUGT
	case PredSGT:
		return PredSLE
	case PredSGE:
		return PredSLT
	case PredSLT:
		return PredSGE
	case PredSLE:
		return PredSGT
	}
	return p
}

// Flags are the poison-generating instruction flags.
type Flags struct {
	NSW   bool // no signed wrap
	NUW   bool // no unsigned wrap
	Exact bool // exact division / shift
}

// String renders the flags in canonical LLVM order ("nuw nsw", "exact").
func (f Flags) String() string {
	s := ""
	if f.NUW {
		s += " nuw"
	}
	if f.NSW {
		s += " nsw"
	}
	if f.Exact {
		s += " exact"
	}
	return s
}

// Incoming is one (value, predecessor-block) pair of a phi node.
type Incoming struct {
	Val   Value
	Block *Block
}

// Instr is a single IR instruction. One struct represents all opcodes;
// fields beyond Op/NameStr/Ty/Args are opcode-specific:
//
//   - ICmp uses Pred;
//   - binary ops use Flags;
//   - Alloca uses AllocTy;
//   - Call uses Callee;
//   - Br/CondBr use Succs (and Args[0] as the condition for CondBr);
//   - Phi uses Incs;
//   - Ret with a value has one Arg, void ret has none.
//
// An Instr is itself a Value when it produces a result.
type Instr struct {
	Op      Opcode
	NameStr string // SSA result name without the leading %; "" if none
	Ty      Type   // result type; Void for stores, brs, void rets/calls
	Args    []Value

	Pred    Pred
	Flags   Flags
	AllocTy Type   // alloca: allocated element type
	Callee  string // call: callee symbol name
	// Succs holds branch targets; for Switch, Succs[0] is the default
	// destination and Succs[1:] pair up with Cases.
	Succs []*Block
	// Cases holds switch case values, parallel to Succs[1:].
	Cases []*Const
	Incs  []Incoming

	// Parent is the containing block, maintained by Block helpers.
	Parent *Block
}

// Type returns the instruction's result type.
func (in *Instr) Type() Type { return in.Ty }

// HasResult reports whether the instruction defines an SSA value.
func (in *Instr) HasResult() bool {
	switch in.Op {
	case OpStore, OpRet, OpBr, OpCondBr, OpSwitch, OpUnreachable:
		return false
	case OpCall:
		_, isVoid := in.Ty.(VoidType)
		return !isVoid
	}
	return true
}

// Block is a basic block: a label and an instruction list whose last
// element is a terminator.
type Block struct {
	NameStr string
	Instrs  []*Instr
	Parent  *Function
}

// Term returns the block terminator, or nil if the block is empty or
// unterminated (only possible mid-construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// appendInstr adds an instruction to the end of the block.
func (b *Block) appendInstr(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Phis returns the leading phi instructions of the block in a slice of
// its own, for a caller that removes them as it goes; one that only
// reads walks Instrs to the first non-phi instead.
func (b *Block) Phis() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}

// Function is a function definition: name, parameters, return type,
// and a list of basic blocks whose first element is the entry.
type Function struct {
	NameStr string
	Params  []*Param
	RetTy   Type
	Blocks  []*Block
	// Attrs carries the raw attribute-group suffix (e.g. "#0") so that
	// round-tripped functions print like clang output. Semantically inert.
	Attrs string
}

// Name returns the function name without the leading @.
func (f *Function) Name() string { return f.NameStr }

// Entry returns the entry block, or nil for an empty function.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ForEachInstr calls fn for every instruction in layout order.
func (f *Function) ForEachInstr(fn func(*Block, *Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(b, in)
		}
	}
}

// Position returns where v, named by the instruction at index ii of
// block bi, is defined in f: the block bk and the index j in it of the
// instruction whose result v is, or -1, -1 when v is no result of f's
// own (a parameter, a constant, an instruction that defines no value,
// another function's value). CloneFunc, interp's lowering and alive's
// executor find every operand by it. It only reads f and allocates
// nothing. The search looks in the use's block from the use up and
// from the block's head down at once, then does the same in the blocks
// before it, wrapping around, and last below the use: a definition a
// few instructions up, or a phi at the head of a long loop body, is
// found in a few steps. An alloca is looked for forward from the entry
// instead, where clang puts every one, however far below its uses.
func (f *Function) Position(bi, ii int, v Value) (bk, j int) {
	x, ok := v.(*Instr)
	if !ok || !x.HasResult() {
		return -1, -1
	}
	if x.Op == OpAlloca {
		for bk, b := range f.Blocks {
			if j := slices.Index(b.Instrs, x); j >= 0 {
				return bk, j
			}
		}
		return -1, -1
	}
	n := len(f.Blocks)
	for k := range n + 1 {
		bk := bi - k
		if bk < 0 {
			bk += n
		}
		instrs, lo, hi := f.Blocks[bk].Instrs, 0, len(f.Blocks[bk].Instrs)
		switch k {
		case 0:
			hi = min(ii+1, hi)
		case n:
			lo = ii + 1
		}
		if j := scan(instrs, lo, hi, x); j >= 0 {
			return bk, j
		}
	}
	return -1, -1
}

// BlockIndex returns the index of b among f's blocks, looked for in
// the blocks from block from on and then in those before it, or -1
// when b is not f's (nil included).
func (f *Function) BlockIndex(from int, b *Block) int {
	if i := scan(f.Blocks, from, len(f.Blocks), b); i >= 0 {
		return i
	}
	return scan(f.Blocks, 0, from, b)
}

// scan is the search under Position and BlockIndex: the index of x in
// s[lo:hi], looked for from both ends at once, or -1.
func scan[T comparable](s []T, lo, hi int, x T) int {
	for hi--; lo <= hi; lo, hi = lo+1, hi-1 {
		if s[hi] == x {
			return hi
		}
		if s[lo] == x {
			return lo
		}
	}
	return -1
}

// Declaration is an external function declaration (callee prototype).
type Declaration struct {
	NameStr  string
	RetTy    Type
	ParamTys []Type
	// readNone marks the callee as having no side effects (pure);
	// such calls may be deduplicated or removed when unused.
	readNone bool
}

// Module is a translation unit: declarations plus function definitions.
type Module struct {
	Decls []*Declaration
	Funcs []*Function
}

// Func returns the defined function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.NameStr == name {
			return f
		}
	}
	return nil
}

// decl returns the declaration with the given name, or nil.
func (m *Module) decl(name string) *Declaration {
	for _, d := range m.Decls {
		if d.NameStr == name {
			return d
		}
	}
	return nil
}
