package alive

import (
	"context"
	"fmt"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
	"veriopt/internal/sat"
)

// The reference the differential test and fuzzer compare exec against:
// the executor as it was while it forked a path at every conditional
// branch (runBlock recursing into each live edge on a clone of the
// state, a join block executed once per path into it), verbatim. Its
// verdicts define exec's wherever it reaches one inside MaxPaths. It
// shares the types a summary is made of, the error types and the pure
// helpers (widthOf, isFalse, unsignedWrap, signedWrap); everything that
// touches a path's state is its own copy.

// VerifyForking is VerifyFuncsCtx with both functions executed by the
// forking reference.
func VerifyForking(ctx context.Context, src, tgt *ir.Function, opts Options) Result {
	return verifyWith(ctx, bv.NewBuilder(), src, tgt, opts, refExec, newSession)
}

// VerifyFresh is VerifyFuncsCtx with the second reference below, a
// fresh solver per refinement query, in place of the session; forking
// selects the forking executor as well. The session must reach the
// verdicts it reaches (TestSessionMatchesFreshSolver,
// TestCorpusSessionParity, TestTrajectoryGolden).
func VerifyFresh(ctx context.Context, src, tgt *ir.Function, opts Options, forking bool) Result {
	run := exec
	if forking {
		run = refExec
	}
	return verifyWith(ctx, bv.NewBuilder(), src, tgt, opts, run, newFreshSolver)
}

// freshSolver is the query solver as it was before bv.Session: every
// query bit-blasted onto a new solver under the whole conflict budget,
// nothing learnt carried from one query to the next.
type freshSolver struct {
	budget    int
	conflicts int
}

func newFreshSolver(_ *ir.Function, opts Options) querySolver {
	return &freshSolver{budget: opts.SolverBudget}
}

func (f *freshSolver) check(t *bv.Term) (bv.Result, error) {
	bl := bv.NewBlaster()
	bl.S.Budget = f.budget
	bl.AssertTrue(t)
	st, err := bl.S.Solve()
	f.conflicts += bl.S.Conflicts()
	res := bv.Result{Status: st, Conflicts: bl.S.Conflicts()}
	if err != nil {
		res.Status = sat.Unknown
	} else if st == sat.Sat {
		res.Model = bl.Model()
	}
	return res, err
}

func (f *freshSolver) spent() int { return f.conflicts }

type refExecutor struct {
	b     *bv.Builder
	cfg   execConfig
	fn    *ir.Function
	steps int
	paths int

	ub       *bv.Term
	rets     []retRecord
	calls    [][]callEvent
	maxOccur int
	allocaID int
}

type refPathState struct {
	cond  *bv.Term
	vals  map[ir.Value]symVal
	mem   map[*ir.Instr]memCell
	occur int // call events so far on this path
}

func (ps *refPathState) clone() *refPathState {
	nv := make(map[ir.Value]symVal, len(ps.vals))
	for k, v := range ps.vals {
		nv[k] = v
	}
	nm := make(map[*ir.Instr]memCell, len(ps.mem))
	for k, v := range ps.mem {
		nm[k] = v
	}
	return &refPathState{cond: ps.cond, vals: nv, mem: nm, occur: ps.occur}
}

// refExec symbolically executes fn, binding parameters to the provided
// shared input values.
func refExec(b *bv.Builder, fn *ir.Function, params []symVal, cfg execConfig) (*summary, error) {
	ex := &refExecutor{b: b, cfg: cfg, fn: fn, ub: b.False()}
	init := &refPathState{cond: b.True(), vals: map[ir.Value]symVal{}, mem: map[*ir.Instr]memCell{}}
	for i, p := range fn.Params {
		init.vals[p] = params[i]
	}
	if err := ex.runBlock(fn.Entry(), nil, init); err != nil {
		return nil, err
	}
	return ex.finish()
}

func (ex *refExecutor) finish() (*summary, error) {
	b := ex.b
	s := &summary{fn: ex.fn, ub: ex.ub, calls: ex.calls, maxOccur: ex.maxOccur}
	if _, isVoid := ex.fn.RetTy.(ir.VoidType); !isVoid {
		w, err := widthOf(ex.fn.RetTy)
		if err != nil {
			return nil, err
		}
		val := b.Const(w, 0)
		poison := b.False()
		for _, r := range ex.rets {
			val = b.Ite(r.cond, r.val.val, val)
			poison = b.Ite(r.cond, r.val.poison, poison)
		}
		s.retVal, s.retPoison = val, poison
	}
	return s, nil
}

func (ex *refExecutor) addUB(cond *bv.Term) {
	ex.ub = ex.b.BoolOr(ex.ub, cond)
}

// runBlock executes block blk entered from pred under state ps.
func (ex *refExecutor) runBlock(blk *ir.Block, pred *ir.Block, ps *refPathState) error {
	b := ex.b
	// Evaluate phis simultaneously from the incoming edge.
	phiVals := map[*ir.Instr]symVal{}
	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		found := false
		for _, inc := range in.Incs {
			if inc.Block == pred {
				v, err := ex.operand(ps, inc.Val)
				if err != nil {
					return err
				}
				phiVals[in] = v
				found = true
				break
			}
		}
		if !found {
			return &errUnsupported{"phi without matching incoming edge"}
		}
	}
	for in, v := range phiVals {
		ps.vals[in] = v
	}

	for _, in := range blk.Instrs {
		if in.Op == ir.OpPhi {
			continue
		}
		ex.steps++
		if ex.steps > ex.cfg.maxSteps {
			return &errPathLimit{diagStepLimit + " (loop too deep?)"}
		}
		// Poll the context every 64 instruction visits: cheap against
		// term construction, frequent enough that cancellation lands
		// well inside one path.
		if ex.steps&63 == 0 && ex.cfg.ctx != nil {
			if err := ex.cfg.ctx.Err(); err != nil {
				return &errCanceled{cause: err}
			}
		}
		switch in.Op {
		case ir.OpRet:
			rec := retRecord{cond: ps.cond}
			if len(in.Args) > 0 {
				v, err := ex.operand(ps, in.Args[0])
				if err != nil {
					return err
				}
				rec.val = v
			}
			ex.rets = append(ex.rets, rec)
			return nil
		case ir.OpUnreachable:
			ex.addUB(ps.cond)
			return nil
		case ir.OpBr:
			return ex.branch(in.Succs[0], blk, ps)
		case ir.OpSwitch:
			v, err := ex.operand(ps, in.Args[0])
			if err != nil {
				return err
			}
			// Switching on poison is UB, like branching on poison.
			ex.addUB(b.BoolAnd(ps.cond, v.poison))
			w := v.val.Width
			notAny := b.True()
			for i, cc := range in.Cases {
				eq := b.Eq(v.val, b.Const(w, cc.Val))
				edge := b.BoolAnd(ps.cond, eq)
				if !isFalse(edge) {
					cs := ps.clone()
					cs.cond = edge
					if err := ex.branch(in.Succs[i+1], blk, cs); err != nil {
						return err
					}
				}
				notAny = b.BoolAnd(notAny, b.Not(eq))
			}
			defEdge := b.BoolAnd(ps.cond, notAny)
			if !isFalse(defEdge) {
				ps.cond = defEdge
				return ex.branch(in.Succs[0], blk, ps)
			}
			return nil
		case ir.OpCondBr:
			c, err := ex.operand(ps, in.Args[0])
			if err != nil {
				return err
			}
			// Branching on poison is UB.
			ex.addUB(b.BoolAnd(ps.cond, c.poison))
			tCond := b.BoolAnd(ps.cond, c.val)
			fCond := b.BoolAnd(ps.cond, b.Not(c.val))
			// Prune statically-false edges.
			if !isFalse(tCond) {
				tps := ps.clone()
				tps.cond = tCond
				if err := ex.branch(in.Succs[0], blk, tps); err != nil {
					return err
				}
			}
			if !isFalse(fCond) {
				ps.cond = fCond
				return ex.branch(in.Succs[1], blk, ps)
			}
			return nil
		default:
			if err := ex.instr(ps, in); err != nil {
				return err
			}
		}
	}
	return &errUnsupported{"block without terminator"}
}

func (ex *refExecutor) branch(dst *ir.Block, from *ir.Block, ps *refPathState) error {
	ex.paths++
	if ex.paths > ex.cfg.maxPaths {
		return &errPathLimit{diagPathLimit}
	}
	return ex.runBlock(dst, from, ps)
}

func (ex *refExecutor) operand(ps *refPathState, v ir.Value) (symVal, error) {
	b := ex.b
	switch x := v.(type) {
	case *ir.Const:
		return symVal{val: b.Const(x.Ty.Bits, x.Val), poison: b.False()}, nil
	case *ir.Undef:
		// Conservatively model undef as poison (sound for proving the
		// transformations in this subset; may over-reject).
		w, err := widthOf(x.Ty)
		if err != nil {
			return symVal{}, err
		}
		return symVal{val: b.Const(w, 0), poison: b.True()}, nil
	case *ir.Poison:
		w, err := widthOf(x.Ty)
		if err != nil {
			return symVal{}, err
		}
		return symVal{val: b.Const(w, 0), poison: b.True()}, nil
	case *ir.GlobalRef:
		return symVal{val: b.Var(64, "glob$"+x.NameStr), poison: b.False()}, nil
	}
	sv, ok := ps.vals[v]
	if !ok {
		return symVal{}, &errUnsupported{"value defined outside executed region"}
	}
	return sv, nil
}

func (ex *refExecutor) instr(ps *refPathState, in *ir.Instr) error {
	b := ex.b
	switch {
	case in.Op.IsBinary():
		x, err := ex.operand(ps, in.Args[0])
		if err != nil {
			return err
		}
		y, err := ex.operand(ps, in.Args[1])
		if err != nil {
			return err
		}
		ps.vals[in] = ex.binop(ps, in, x, y)
		return nil
	case in.Op == ir.OpICmp:
		x, err := ex.operand(ps, in.Args[0])
		if err != nil {
			return err
		}
		y, err := ex.operand(ps, in.Args[1])
		if err != nil {
			return err
		}
		if _, isInt := in.Args[0].Type().(ir.IntType); !isInt {
			return &errUnsupported{"icmp on non-integer operands"}
		}
		var cmp *bv.Term
		switch in.Pred {
		case ir.PredEQ:
			cmp = b.Eq(x.val, y.val)
		case ir.PredNE:
			cmp = b.Not(b.Eq(x.val, y.val))
		case ir.PredUGT:
			cmp = b.Cmp(bv.OpUlt, y.val, x.val)
		case ir.PredUGE:
			cmp = b.Cmp(bv.OpUle, y.val, x.val)
		case ir.PredULT:
			cmp = b.Cmp(bv.OpUlt, x.val, y.val)
		case ir.PredULE:
			cmp = b.Cmp(bv.OpUle, x.val, y.val)
		case ir.PredSGT:
			cmp = b.Cmp(bv.OpSlt, y.val, x.val)
		case ir.PredSGE:
			cmp = b.Cmp(bv.OpSle, y.val, x.val)
		case ir.PredSLT:
			cmp = b.Cmp(bv.OpSlt, x.val, y.val)
		case ir.PredSLE:
			cmp = b.Cmp(bv.OpSle, x.val, y.val)
		}
		ps.vals[in] = symVal{val: cmp, poison: b.BoolOr(x.poison, y.poison)}
		return nil
	case in.Op == ir.OpSelect:
		c, err := ex.operand(ps, in.Args[0])
		if err != nil {
			return err
		}
		t, err := ex.operand(ps, in.Args[1])
		if err != nil {
			return err
		}
		f, err := ex.operand(ps, in.Args[2])
		if err != nil {
			return err
		}
		ps.vals[in] = symVal{
			val:    b.Ite(c.val, t.val, f.val),
			poison: b.BoolOr(c.poison, b.Ite(c.val, t.poison, f.poison)),
		}
		return nil
	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		x, err := ex.operand(ps, in.Args[0])
		if err != nil {
			return err
		}
		w, err := widthOf(in.Ty)
		if err != nil {
			return err
		}
		var v *bv.Term
		switch in.Op {
		case ir.OpZExt:
			v = b.ZExt(x.val, w)
		case ir.OpSExt:
			v = b.SExt(x.val, w)
		case ir.OpTrunc:
			v = b.Trunc(x.val, w)
		}
		ps.vals[in] = symVal{val: v, poison: x.poison}
		return nil
	case in.Op == ir.OpFreeze:
		x, err := ex.operand(ps, in.Args[0])
		if err != nil {
			return err
		}
		// freeze(poison) is an arbitrary fixed value; pick 0 (matching
		// the interpreter) so both sides agree deterministically.
		w, _ := widthOf(in.Ty)
		ps.vals[in] = symVal{
			val:    b.Ite(x.poison, b.Const(w, 0), x.val),
			poison: b.False(),
		}
		return nil
	case in.Op == ir.OpAlloca:
		ps.mem[in] = memCell{}
		// The address itself: opaque distinct non-null value.
		ex.allocaID++
		ps.vals[in] = symVal{val: b.Const(64, uint64(0x1000+16*ex.allocaID)), poison: b.False()}
		return nil
	case in.Op == ir.OpLoad:
		cell, err := ex.resolvePtr(ps, in.Args[0])
		if err != nil {
			return err
		}
		mc := ps.mem[cell]
		if !mc.init {
			// Load of uninitialized stack memory: undef, modeled as poison.
			w, errW := widthOf(in.Ty)
			if errW != nil {
				return errW
			}
			ps.vals[in] = symVal{val: b.Const(w, 0), poison: b.True()}
			return nil
		}
		w, errW := widthOf(in.Ty)
		if errW != nil {
			return errW
		}
		if mc.val.val.Width != w {
			return &errUnsupported{"load width differs from stored width"}
		}
		ps.vals[in] = mc.val
		return nil
	case in.Op == ir.OpStore:
		v, err := ex.operand(ps, in.Args[0])
		if err != nil {
			return err
		}
		cell, err := ex.resolvePtr(ps, in.Args[1])
		if err != nil {
			return err
		}
		ps.mem[cell] = memCell{val: v, init: true}
		return nil
	case in.Op == ir.OpCall:
		args := make([]symVal, len(in.Args))
		for i, a := range in.Args {
			v, err := ex.operand(ps, a)
			if err != nil {
				return err
			}
			args[i] = v
		}
		k := ps.occur
		ps.occur++
		if ps.occur > ex.maxOccur {
			ex.maxOccur = ps.occur
		}
		var result *bv.Term
		if in.HasResult() {
			w, err := widthOf(in.Ty)
			if err != nil {
				return err
			}
			result = ex.cfg.callVar(k, in.Callee, w)
		}
		for len(ex.calls) <= k {
			ex.calls = append(ex.calls, nil)
		}
		ex.calls[k] = append(ex.calls[k], callEvent{cond: ps.cond, callee: in.Callee, args: args, result: result})
		if in.HasResult() {
			ps.vals[in] = symVal{val: result, poison: b.False()}
		}
		return nil
	}
	return &errUnsupported{fmt.Sprintf("instruction %v", in.Op)}
}

// resolvePtr maps a pointer operand to its alloca cell; any other
// pointer provenance is unsupported.
func (ex *refExecutor) resolvePtr(ps *refPathState, p ir.Value) (*ir.Instr, error) {
	in, ok := p.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return nil, &errUnsupported{"memory access through non-alloca pointer"}
	}
	if _, present := ps.mem[in]; !present {
		return nil, &errUnsupported{"memory access to out-of-scope alloca"}
	}
	return in, nil
}

func (ex *refExecutor) binop(ps *refPathState, in *ir.Instr, x, y symVal) symVal {
	b := ex.b
	it := in.Ty.(ir.IntType)
	w := it.Bits
	poison := b.BoolOr(x.poison, y.poison)
	var bop bv.Op
	switch in.Op {
	case ir.OpAdd:
		bop = bv.OpAdd
	case ir.OpSub:
		bop = bv.OpSub
	case ir.OpMul:
		bop = bv.OpMul
	case ir.OpUDiv:
		bop = bv.OpUDiv
	case ir.OpSDiv:
		bop = bv.OpSDiv
	case ir.OpURem:
		bop = bv.OpURem
	case ir.OpSRem:
		bop = bv.OpSRem
	case ir.OpAnd:
		bop = bv.OpAnd
	case ir.OpOr:
		bop = bv.OpOr
	case ir.OpXor:
		bop = bv.OpXor
	case ir.OpShl:
		bop = bv.OpShl
	case ir.OpLShr:
		bop = bv.OpLShr
	case ir.OpAShr:
		bop = bv.OpAShr
	}
	val := b.Bin(bop, x.val, y.val)

	if in.Op.IsDivRem() {
		// Division by zero or a poison divisor is immediate UB; the
		// signed MinInt/-1 overflow is UB too.
		zero := b.Const(w, 0)
		ub := b.BoolOr(y.poison, b.Eq(y.val, zero))
		if in.Op == ir.OpSDiv || in.Op == ir.OpSRem {
			minInt := b.Const(w, 1<<uint(w-1))
			allOnes := b.Const(w, ^uint64(0))
			ub = b.BoolOr(ub, b.BoolAnd(b.Eq(x.val, minInt), b.Eq(y.val, allOnes)))
		}
		ex.addUB(b.BoolAnd(ps.cond, ub))
		if in.Flags.Exact {
			// exact division: poison when the remainder is non-zero.
			var rem *bv.Term
			if in.Op == ir.OpUDiv {
				rem = b.Bin(bv.OpURem, x.val, y.val)
			} else {
				rem = b.Bin(bv.OpSRem, x.val, y.val)
			}
			poison = b.BoolOr(poison, b.Not(b.Eq(rem, b.Const(w, 0))))
		}
		return symVal{val: val, poison: poison}
	}

	// Flag-induced poison.
	fl := in.Flags
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul:
		if fl.NUW {
			poison = b.BoolOr(poison, unsignedWrap(b, in.Op, x.val, y.val, w))
		}
		if fl.NSW {
			poison = b.BoolOr(poison, signedWrap(b, in.Op, x.val, y.val, w))
		}
	case ir.OpShl:
		over := b.Cmp(bv.OpUle, b.Const(w, uint64(w)), y.val)
		poison = b.BoolOr(poison, over)
		if fl.NUW {
			// nuw shl: shifted-out bits must be zero, i.e. lshr(shl(x,y),y)==x.
			back := b.Bin(bv.OpLShr, val, y.val)
			poison = b.BoolOr(poison, b.Not(b.Eq(back, x.val)))
		}
		if fl.NSW {
			back := b.Bin(bv.OpAShr, val, y.val)
			poison = b.BoolOr(poison, b.Not(b.Eq(back, x.val)))
		}
	case ir.OpLShr, ir.OpAShr:
		over := b.Cmp(bv.OpUle, b.Const(w, uint64(w)), y.val)
		poison = b.BoolOr(poison, over)
		if fl.Exact {
			// exact shift: shifted-out bits must be zero.
			back := b.Bin(bv.OpShl, val, y.val)
			poison = b.BoolOr(poison, b.Not(b.Eq(back, x.val)))
		}
	}
	return symVal{val: val, poison: poison}
}
