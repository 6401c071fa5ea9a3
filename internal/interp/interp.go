// Package interp is a concrete interpreter for the IR subset with
// explicit poison and undefined-behaviour tracking. It is used for
// differential testing: an optimized function must refine the source
// function on every concrete input (source UB permits anything;
// source poison may be refined to any value; otherwise results must
// match).
package interp

import (
	"fmt"
	"math/bits"

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
	// Calls records the observable call trace: callee name plus the
	// concrete arguments, in execution order.
	Calls []CallObs
}

// CallObs is one observed external call.
type CallObs struct {
	Callee string
	Args   []Val
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
	st := &state{
		cfg:    cfg,
		params: f.Params,
		args:   make([]Val, len(args)),
		vals:   make(map[*ir.Instr]Val, f.NumInstrs()),
		out:    &Outcome{},
	}
	for i, p := range f.Params {
		a := args[i]
		if p.Noundef && a.Poison {
			// Passing poison/undef to a noundef parameter is immediate UB
			// in LLVM; callers of Run should not do it, but be safe.
			st.out.UB = true
			st.out.UBReason = "poison passed to noundef parameter"
			return st.out, nil
		}
		if it, ok := p.Ty.(ir.IntType); ok {
			a.Bits &= it.Mask()
		}
		st.args[i] = a
	}
	err := st.run(f)
	if err != nil {
		return nil, err
	}
	return st.out, nil
}

// memCell is the storage of one executed alloca.
type memCell struct {
	at   *ir.Instr
	val  Val
	init bool
}

// state is one execution. Results are keyed by instruction pointer and
// arguments held by parameter position, so no lookup hashes an
// interface; nothing is numbered up front, since a one-shot run visits
// fewer instructions than the function has.
type state struct {
	cfg    Config
	params []*ir.Param
	args   []Val
	vals   map[*ir.Instr]Val
	cells  []memCell // in execution order
	phis   []Val     // scratch for a block's leading phis
	out    *Outcome
	steps  int
}

func (s *state) ub(reason string) {
	s.out.UB = true
	s.out.UBReason = reason
}

// eval reads an operand; a value defined nowhere in the function (or
// not yet executed) reads as the zero Val.
func (s *state) eval(v ir.Value) Val {
	switch x := v.(type) {
	case *ir.Instr:
		return s.vals[x]
	case *ir.Const:
		return V(x.Val & x.Ty.Mask())
	case *ir.Param:
		for i, p := range s.params {
			if p == x {
				return s.args[i]
			}
		}
	case *ir.Undef:
		// Model undef as poison for refinement purposes (conservative
		// but sound for the transformations we validate).
		return p()
	case *ir.Poison:
		return p()
	case *ir.GlobalRef:
		return V(0x61000) // opaque non-null address; never dereferenced
	}
	return Val{}
}

func (s *state) run(f *ir.Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("interp: function has no blocks")
	}
	b := f.Blocks[0]
	var prev *ir.Block
	for {
		// Phi nodes evaluate simultaneously from the incoming edge:
		// all of them read before any is assigned.
		s.phis = s.phis[:0]
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			found := false
			for _, inc := range in.Incs {
				if inc.Block == prev {
					s.phis = append(s.phis, s.eval(inc.Val))
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("interp: phi %%%s has no incoming for predecessor", in.NameStr)
			}
		}
		for i, v := range s.phis {
			s.vals[b.Instrs[i]] = v
		}
		var next *ir.Block
		for _, in := range b.Instrs[len(s.phis):] {
			if in.Op == ir.OpPhi {
				continue
			}
			s.steps++
			if s.steps > s.cfg.maxSteps {
				return errStepLimit
			}
			done, succ, err := s.step(in)
			if err != nil {
				return err
			}
			if s.out.UB || done {
				return nil
			}
			if next = succ; next != nil {
				break
			}
		}
		if next == nil {
			return fmt.Errorf("interp: block %s does not end in a terminator", b.NameStr)
		}
		prev, b = b, next
	}
}

// step executes one instruction. It returns done=true on ret or
// unreachable, or a non-nil next block on a branch.
func (s *state) step(in *ir.Instr) (done bool, next *ir.Block, err error) {
	var v Val // the instruction's result, stored once after the switch
	switch {
	case in.Op.IsBinary():
		v = s.binop(in, s.eval(in.Args[0]), s.eval(in.Args[1]))
		if s.out.UB {
			return true, nil, nil
		}
	case in.Op == ir.OpICmp:
		x, y := s.eval(in.Args[0]), s.eval(in.Args[1])
		if x.Poison || y.Poison {
			v = p()
		} else {
			it := in.Args[0].Type().(ir.IntType)
			v = V(boolBit(icmp(in.Pred, x.Bits, y.Bits, it)))
		}
	case in.Op == ir.OpSelect:
		c, t, f := s.eval(in.Args[0]), s.eval(in.Args[1]), s.eval(in.Args[2])
		switch {
		case c.Poison:
			v = p()
		case c.Bits&1 == 1:
			v = t
		default:
			v = f
		}
	case in.Op == ir.OpZExt:
		v = s.eval(in.Args[0]) // already masked
	case in.Op == ir.OpSExt:
		v = p()
		if x := s.eval(in.Args[0]); !x.Poison {
			from := in.Args[0].Type().(ir.IntType)
			to := in.Ty.(ir.IntType)
			v = V(signExtend(x.Bits, from) & to.Mask())
		}
	case in.Op == ir.OpTrunc:
		v = p()
		if x := s.eval(in.Args[0]); !x.Poison {
			v = V(x.Bits & in.Ty.(ir.IntType).Mask())
		}
	case in.Op == ir.OpFreeze:
		if v = s.eval(in.Args[0]); v.Poison {
			// Freeze picks an arbitrary value; zero is a valid choice
			// and deterministic.
			v = V(0)
		}
	case in.Op == ir.OpAlloca:
		// A re-executed alloca resets its cell; the fake address follows
		// the number of cells live at that moment.
		i := s.cell(in)
		if i < 0 {
			i = len(s.cells)
			s.cells = append(s.cells, memCell{})
		}
		s.cells[i] = memCell{at: in}
		v = V(uint64(0x1000 + len(s.cells)*16))
	case in.Op == ir.OpLoad:
		i := s.cell(in.Args[0])
		if i < 0 {
			s.ub("load from unknown pointer")
			return true, nil, nil
		}
		// Uninitialized load yields undef, modeled as poison.
		v = p()
		if c := &s.cells[i]; c.init {
			v = c.val
			if it, ok := in.Ty.(ir.IntType); ok && !v.Poison {
				v.Bits &= it.Mask()
			}
		}
	case in.Op == ir.OpStore:
		i := s.cell(in.Args[1])
		if i < 0 {
			s.ub("store to unknown pointer")
			return true, nil, nil
		}
		s.cells[i].val, s.cells[i].init = s.eval(in.Args[0]), true
		return false, nil, nil
	case in.Op == ir.OpCall:
		args := make([]Val, len(in.Args))
		for i, a := range in.Args {
			args[i] = s.eval(a)
		}
		s.out.Calls = append(s.out.Calls, CallObs{Callee: in.Callee, Args: args})
		if !in.HasResult() {
			return false, nil, nil
		}
		// A value derived from a hash of the arguments, so that equal
		// call sites yield equal results within a run.
		v = V(hashCall(in.Callee, args))
		if it, ok := in.Ty.(ir.IntType); ok {
			v.Bits &= it.Mask()
		}
	case in.Op == ir.OpRet:
		if len(in.Args) > 0 {
			s.out.Ret = s.eval(in.Args[0])
		}
		return true, nil, nil
	case in.Op == ir.OpBr:
		return false, in.Succs[0], nil
	case in.Op == ir.OpCondBr:
		c := s.eval(in.Args[0])
		if c.Poison {
			s.ub("branch on poison")
			return true, nil, nil
		}
		if c.Bits&1 == 1 {
			return false, in.Succs[0], nil
		}
		return false, in.Succs[1], nil
	case in.Op == ir.OpSwitch:
		x := s.eval(in.Args[0])
		if x.Poison {
			s.ub("switch on poison")
			return true, nil, nil
		}
		it := in.Args[0].Type().(ir.IntType)
		for i, cc := range in.Cases {
			if x.Bits&it.Mask() == cc.Val&it.Mask() {
				return false, in.Succs[i+1], nil
			}
		}
		return false, in.Succs[0], nil
	case in.Op == ir.OpUnreachable:
		s.ub("reached unreachable")
		return true, nil, nil
	default:
		return false, nil, fmt.Errorf("interp: unhandled op %v", in.Op)
	}
	s.vals[in] = v
	return false, nil, nil
}

// cell returns the index of the cell p points to, or -1. Pointers in
// this subset only flow directly from allocas, and only an executed
// alloca has a cell.
func (s *state) cell(p ir.Value) int {
	if in, ok := p.(*ir.Instr); ok {
		for i := range s.cells {
			if s.cells[i].at == in {
				return i
			}
		}
	}
	return -1
}

func (s *state) binop(in *ir.Instr, x, y Val) Val {
	it := in.Ty.(ir.IntType)
	// Division UB must be checked even for poison operands? In LLVM,
	// udiv with poison divisor is immediate UB only if the divisor
	// *is* 0; poison makes the result poison but a poison divisor is
	// UB (division by poison is UB). We treat poison divisor as UB for
	// div/rem, matching Alive2.
	if in.Op.IsDivRem() {
		if y.Poison {
			s.ub(fmt.Sprintf("%s by poison divisor", in.Op))
			return p()
		}
		if y.Bits&it.Mask() == 0 {
			s.ub(fmt.Sprintf("%s by zero", in.Op))
			return p()
		}
		if in.Op == ir.OpSDiv || in.Op == ir.OpSRem {
			sx := signExtend(x.Bits, it)
			sy := signExtend(y.Bits, it)
			if !x.Poison && int64(sy) == -1 && int64(sx) == minSigned(it) {
				s.ub("signed division overflow")
				return p()
			}
		}
	}
	if x.Poison || y.Poison {
		return p()
	}
	a, b := x.Bits&it.Mask(), y.Bits&it.Mask()
	var r uint64
	poison := false
	switch in.Op {
	case ir.OpAdd:
		r = (a + b) & it.Mask()
		if in.Flags.NUW && r < a {
			poison = true
		}
		if in.Flags.NSW && signedAddOverflows(a, b, it) {
			poison = true
		}
	case ir.OpSub:
		r = (a - b) & it.Mask()
		if in.Flags.NUW && b > a {
			poison = true
		}
		if in.Flags.NSW && signedSubOverflows(a, b, it) {
			poison = true
		}
	case ir.OpMul:
		r = (a * b) & it.Mask()
		if in.Flags.NUW && unsignedMulOverflows(a, b, it) {
			poison = true
		}
		if in.Flags.NSW && signedMulOverflows(a, b, it) {
			poison = true
		}
	case ir.OpUDiv:
		r = a / b
		if in.Flags.Exact && a%b != 0 {
			poison = true
		}
	case ir.OpSDiv:
		sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
		r = uint64(sa/sb) & it.Mask()
		if in.Flags.Exact && sa%sb != 0 {
			poison = true
		}
	case ir.OpURem:
		r = a % b
	case ir.OpSRem:
		sa, sb := int64(signExtend(a, it)), int64(signExtend(b, it))
		r = uint64(sa%sb) & it.Mask()
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		if b >= uint64(it.Bits) {
			return p()
		}
		r = (a << b) & it.Mask()
		if in.Flags.NUW && (r>>b) != a {
			poison = true
		}
		if in.Flags.NSW && int64(signExtend(r, it))>>b != int64(signExtend(a, it)) {
			poison = true
		}
	case ir.OpLShr:
		if b >= uint64(it.Bits) {
			return p()
		}
		r = a >> b
		if in.Flags.Exact && a&((1<<b)-1) != 0 {
			poison = true
		}
	case ir.OpAShr:
		if b >= uint64(it.Bits) {
			return p()
		}
		r = uint64(int64(signExtend(a, it))>>b) & it.Mask()
		if in.Flags.Exact && a&((1<<b)-1) != 0 {
			poison = true
		}
	}
	if poison {
		return p()
	}
	return V(r & it.Mask())
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
