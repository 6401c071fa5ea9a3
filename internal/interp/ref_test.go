package interp

import (
	"fmt"

	"veriopt/internal/ir"
)

// The reference the differential test and fuzzer compare Run against:
// the executor as it was while it kept every value in one
// map[ir.Value]Val, a map of alloca cells and a fresh phi map per block
// visit, less the Config.CallResult branch (the field is gone). Its
// Outcome, error text and step accounting define Run's on every
// function ir.VerifyFunc accepts. It shares only the pure arithmetic
// helpers (icmp, signExtend, the overflow predicates, hashCall), which
// have property tests of their own. One change since: an icmp on
// pointers, which the verifier accepts, is the error "interp: icmp on
// non-integer operands" where it was a panic.

func refRun(f *ir.Function, args []Val, cfg Config) (*Outcome, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("interp: %d args for %d params", len(args), len(f.Params))
	}
	if cfg.maxSteps == 0 {
		cfg.maxSteps = 10000
	}
	st := &refState{
		cfg:  cfg,
		vals: map[ir.Value]Val{},
		mem:  map[*ir.Instr]refMemCell{},
		out:  &Outcome{},
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
		st.vals[p] = a
	}
	err := st.run(f)
	if err != nil {
		return nil, err
	}
	return st.out, nil
}

type refMemCell struct {
	val    Val
	init   bool
	elemTy ir.Type
}

type refState struct {
	cfg   Config
	vals  map[ir.Value]Val
	mem   map[*ir.Instr]refMemCell
	out   *Outcome
	steps int
}

func (s *refState) ub(reason string) {
	s.out.UB = true
	s.out.UBReason = reason
}

func (s *refState) eval(v ir.Value) Val {
	switch x := v.(type) {
	case *ir.Const:
		return V(x.Val & x.Ty.Mask())
	case *ir.Undef:
		// Model undef as poison for refinement purposes (conservative
		// but sound for the transformations we validate).
		return p()
	case *ir.Poison:
		return p()
	case *ir.GlobalRef:
		return V(0x61000) // opaque non-null address; never dereferenced
	}
	return s.vals[v]
}

func (s *refState) run(f *ir.Function) error {
	b := f.Entry()
	var prev *ir.Block
	for {
		// Phi nodes evaluate simultaneously from the incoming edge.
		phiVals := map[*ir.Instr]Val{}
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			found := false
			for _, inc := range in.Incs {
				if inc.Block == prev {
					phiVals[in] = s.eval(inc.Val)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("interp: phi %%%s has no incoming for predecessor", in.NameStr)
			}
		}
		for in, v := range phiVals {
			s.vals[in] = v
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			s.steps++
			if s.steps > s.cfg.maxSteps {
				return errStepLimit
			}
			done, next, err := s.step(in)
			if err != nil {
				return err
			}
			if s.out.UB || done {
				return nil
			}
			if next != nil {
				prev = b
				b = next
				break
			}
		}
	}
}

// step executes one instruction. It returns done=true on ret or
// unreachable, or a non-nil next block on a branch.
func (s *refState) step(in *ir.Instr) (done bool, next *ir.Block, err error) {
	switch {
	case in.Op.IsBinary():
		x, y := s.eval(in.Args[0]), s.eval(in.Args[1])
		s.vals[in] = s.binop(in, x, y)
		if s.out.UB {
			return true, nil, nil
		}
	case in.Op == ir.OpICmp:
		it, ok := in.Args[0].Type().(ir.IntType)
		if !ok {
			return false, nil, fmt.Errorf("interp: icmp on non-integer operands")
		}
		x, y := s.eval(in.Args[0]), s.eval(in.Args[1])
		if x.Poison || y.Poison {
			s.vals[in] = p()
		} else {
			s.vals[in] = V(boolBit(icmp(in.Pred, x.Bits, y.Bits, it)))
		}
	case in.Op == ir.OpSelect:
		c, t, f := s.eval(in.Args[0]), s.eval(in.Args[1]), s.eval(in.Args[2])
		switch {
		case c.Poison:
			s.vals[in] = p()
		case c.Bits&1 == 1:
			s.vals[in] = t
		default:
			s.vals[in] = f
		}
	case in.Op == ir.OpZExt:
		s.vals[in] = s.eval(in.Args[0]) // already masked
	case in.Op == ir.OpSExt:
		x := s.eval(in.Args[0])
		if x.Poison {
			s.vals[in] = p()
		} else {
			from := in.Args[0].Type().(ir.IntType)
			to := in.Ty.(ir.IntType)
			s.vals[in] = V(signExtend(x.Bits, from) & to.Mask())
		}
	case in.Op == ir.OpTrunc:
		x := s.eval(in.Args[0])
		if x.Poison {
			s.vals[in] = p()
		} else {
			to := in.Ty.(ir.IntType)
			s.vals[in] = V(x.Bits & to.Mask())
		}
	case in.Op == ir.OpFreeze:
		x := s.eval(in.Args[0])
		if x.Poison {
			// Freeze picks an arbitrary value; zero is a valid choice
			// and deterministic.
			s.vals[in] = V(0)
		} else {
			s.vals[in] = x
		}
	case in.Op == ir.OpAlloca:
		s.mem[in] = refMemCell{elemTy: in.AllocTy}
		s.vals[in] = V(uint64(0x1000 + len(s.mem)*16)) // stable fake address
	case in.Op == ir.OpLoad:
		cellIn, ok := s.resolvePtr(in.Args[0])
		if !ok {
			s.ub("load from unknown pointer")
			return true, nil, nil
		}
		cell := s.mem[cellIn]
		if !cell.init {
			// Uninitialized load yields undef, modeled as poison.
			s.vals[in] = p()
		} else {
			v := cell.val
			if it, ok := in.Ty.(ir.IntType); ok && !v.Poison {
				v.Bits &= it.Mask()
			}
			s.vals[in] = v
		}
	case in.Op == ir.OpStore:
		cellIn, ok := s.resolvePtr(in.Args[1])
		if !ok {
			s.ub("store to unknown pointer")
			return true, nil, nil
		}
		cell := s.mem[cellIn]
		cell.val = s.eval(in.Args[0])
		cell.init = true
		s.mem[cellIn] = cell
	case in.Op == ir.OpCall:
		args := make([]Val, len(in.Args))
		for i, a := range in.Args {
			args[i] = s.eval(a)
		}
		s.out.Calls = append(s.out.Calls, CallObs{Site: in, Args: args})
		if in.HasResult() {
			s.vals[in] = V(hashCall(in.Callee, args))
			if it, ok := in.Ty.(ir.IntType); ok {
				v := s.vals[in]
				v.Bits &= it.Mask()
				s.vals[in] = v
			}
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
		v := s.eval(in.Args[0])
		if v.Poison {
			s.ub("switch on poison")
			return true, nil, nil
		}
		it := in.Args[0].Type().(ir.IntType)
		for i, cc := range in.Cases {
			if v.Bits&it.Mask() == cc.Val&it.Mask() {
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
	return false, nil, nil
}

// resolvePtr maps a pointer operand back to its defining alloca.
// Pointers in this subset only flow directly from allocas.
func (s *refState) resolvePtr(p ir.Value) (*ir.Instr, bool) {
	in, ok := p.(*ir.Instr)
	if !ok {
		return nil, false
	}
	if in.Op == ir.OpAlloca {
		_, present := s.mem[in]
		return in, present
	}
	return nil, false
}

func (s *refState) binop(in *ir.Instr, x, y Val) Val {
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
