// Package alive implements bounded translation validation for the IR
// subset, in the style of Alive2 (Lopes et al., PLDI 2021): it proves
// or refutes that a transformed function refines the original under
// LLVM's poison/UB semantics, using symbolic execution over bit-vector
// terms decided by bit-blasting (internal/bv) and CDCL SAT
// (internal/sat). Verdicts follow the paper's four categories:
// semantic equivalence, semantic error (with a counterexample
// diagnostic), syntax error, and inconclusive (resource limits or
// unsupported constructs, e.g. deep loops).
package alive

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
)

// errUnsupported marks constructs outside the validated subset; they
// surface as Inconclusive verdicts, mirroring Alive2 giving up.
type errUnsupported struct{ what string }

func (e *errUnsupported) Error() string { return "unsupported: " + e.what }

// errPathLimit marks path/step budget exhaustion (deep loops).
type errPathLimit struct{ what string }

func (e *errPathLimit) Error() string { return "resource limit: " + e.what }

// errCanceled marks a context that ended mid-execution; it surfaces
// as a Canceled Inconclusive verdict (never cached).
type errCanceled struct{ cause error }

func (e *errCanceled) Error() string {
	if e.cause == nil {
		return "canceled"
	}
	return "canceled: " + e.cause.Error()
}

// symVal is a symbolic value: bits plus a poison condition.
type symVal struct {
	val    *bv.Term // value bits
	poison *bv.Term // width-1 poison condition
}

// callEvent is one symbolic external-call occurrence on some path.
type callEvent struct {
	cond   *bv.Term // path condition under which the call happens
	callee string
	args   []symVal
	result *bv.Term // shared uninterpreted result variable
}

// summary is the full symbolic semantics of one function.
type summary struct {
	fn *ir.Function
	// ub is the condition under which executing the function is UB.
	ub *bv.Term
	// retVal/retPoison describe the returned value (nil for void).
	retVal    *bv.Term
	retPoison *bv.Term
	// calls[k] lists, per call-occurrence index k, the events observed
	// across all paths (each with its own path condition).
	calls [][]callEvent
	// maxOccur is the largest number of call events on any one path.
	maxOccur int
	// Edges taken, instructions visited and states merged to get here.
	paths, steps, merges int
}

// execConfig bounds symbolic execution.
type execConfig struct {
	// ctx is polled periodically during execution; nil means never
	// canceled.
	ctx      context.Context
	maxPaths int
	maxSteps int // total instruction visits across all paths
	// prefix distinguishes source from target for internal var names.
	prefix string
	// callVar returns the shared uninterpreted result variable for
	// call-occurrence k to a callee with a given result width.
	callVar func(k int, callee string, width int) *bv.Term
}

type executor struct {
	b      *bv.Builder
	cfg    execConfig
	fn     *ir.Function
	params []symVal // by position; no state changes them

	steps, paths, merges int

	ub       *bv.Term
	rets     []retRecord
	calls    [][]callEvent
	maxOccur int
	allocaID int

	// pending holds the states that took an edge, oldest first; its first
	// array and the entry's state are allocated with the executor.
	pending    []arrival
	pendingBuf [4]arrival
	entry      pathState
	// order ranks the blocks in reverse post-order (post counts down as
	// they finish), from the first time two states wait at once.
	order map[*ir.Block]int32
	post  int32
}

type retRecord struct {
	cond *bv.Term
	val  symVal // zero for void
}

// pathState is what holds under cond. States that meet at a block are
// merged, so one stands for every path into its block, not for one.
type pathState struct {
	cond  *bv.Term
	vals  map[*ir.Instr]symVal
	mem   map[*ir.Instr]memCell
	occur int // call events so far, the same on every path it stands for
}

// arrival is a state that took the edge pred -> dst.
type arrival struct {
	dst, pred *ir.Block
	ps        *pathState
}

type memCell struct {
	val  symVal
	init bool
}

func (ps *pathState) clone() *pathState {
	return &pathState{cond: ps.cond, vals: maps.Clone(ps.vals), mem: maps.Clone(ps.mem), occur: ps.occur}
}

// widthOf maps an IR type to a bit-vector width. Pointers get 64 bits
// but pointer arithmetic is unsupported.
func widthOf(t ir.Type) (int, error) {
	switch tt := t.(type) {
	case ir.IntType:
		return tt.Bits, nil
	case ir.PtrType:
		return 64, nil
	}
	return 0, &errUnsupported{fmt.Sprintf("type %v in value position", t)}
}

// exec symbolically executes fn, binding parameters to the provided
// shared input values. It runs the waiting block earliest in reverse
// post-order: on acyclic code every state that can reach it has then
// arrived and it runs once, on their merge; a back edge re-enters a
// header that has run, which is bounded unrolling (DESIGN.md §13).
func exec(b *bv.Builder, fn *ir.Function, params []symVal, cfg execConfig) (*summary, error) {
	ex := &executor{b: b, cfg: cfg, fn: fn, params: params, ub: b.False()}
	ex.entry = pathState{cond: b.True(), vals: map[*ir.Instr]symVal{}, mem: map[*ir.Instr]memCell{}}
	ex.pending = append(ex.pendingBuf[:0], arrival{dst: fn.Entry(), ps: &ex.entry})
	for len(ex.pending) > 0 {
		if err := ex.runNext(); err != nil {
			return nil, err
		}
	}
	return ex.finish()
}

func (ex *executor) finish() (*summary, error) {
	b := ex.b
	s := &summary{fn: ex.fn, ub: ex.ub, calls: ex.calls, maxOccur: ex.maxOccur,
		paths: ex.paths, steps: ex.steps, merges: ex.merges}
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

func (ex *executor) addUB(cond *bv.Term) {
	ex.ub = ex.b.BoolOr(ex.ub, cond)
}

// number ranks blk and every block first reached through it.
func (ex *executor) number(blk *ir.Block) {
	ex.order[blk] = 0
	for _, s := range blk.Succs() {
		if _, seen := ex.order[s]; !seen {
			ex.number(s)
		}
	}
	ex.post--
	ex.order[blk] = ex.post
}

// runNext takes the pending block earliest in reverse post-order,
// merges the states waiting at it and runs it once per state left.
func (ex *executor) runNext() error {
	blk := ex.pending[0].dst
	if len(ex.pending) > 1 {
		if ex.order == nil {
			ex.order = make(map[*ir.Block]int32, len(ex.fn.Blocks))
			ex.number(ex.fn.Entry())
		}
		for _, a := range ex.pending[1:] {
			if ex.order[a.dst] < ex.order[blk] {
				blk = a.dst
			}
		}
	}
	// Each state reads blk's phis from its own edge, then merges with a
	// state it splits a condition with, and that one with the next: three
	// arms meeting in one block nest the way the branches did.
	var buf [4]*pathState
	group, rest := buf[:0], ex.pending[:0]
	for _, a := range ex.pending {
		if a.dst != blk {
			rest = append(rest, a)
			continue
		}
		if err := ex.enter(blk, a.pred, a.ps); err != nil {
			return err
		}
		ps := a.ps
		for i := 0; i < len(group); i++ {
			if p, c := ex.split(group[i].cond, ps.cond); p != nil && ex.merge(group[i], ps, p, c) {
				ps = group[i]
				group, i = slices.Delete(group, i, i+1), -1
			}
		}
		group = append(group, ps)
	}
	ex.pending = rest
	// Then what no branch splits (the arms of a switch), in order.
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			if ex.merge(group[i], group[j], nil, nil) {
				group, j = slices.Delete(group, j, j+1), j-1
			}
		}
	}
	for _, ps := range group {
		if err := ex.runBlock(blk, ps); err != nil {
			return err
		}
	}
	return nil
}

// enter evaluates blk's phis, simultaneously, from the edge ps took.
func (ex *executor) enter(blk, pred *ir.Block, ps *pathState) error {
	var buf [4]symVal
	phis := buf[:0]
	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		i := slices.IndexFunc(in.Incs, func(inc ir.Incoming) bool { return inc.Block == pred })
		if i < 0 {
			return &errUnsupported{"phi without matching incoming edge"}
		}
		v, err := ex.operand(ps, in.Incs[i].Val)
		if err != nil {
			return err
		}
		phis = append(phis, v)
	}
	for i, v := range phis {
		ps.vals[blk.Instrs[i]] = v
	}
	return nil
}

// split recognises the conditions of the two edges of one branch: for
// cx = p ∧ c and cy = p ∧ ¬c (or c and ¬c, p true) it returns p and c,
// otherwise nil. The two states merge under p with c selecting, which
// is how a select on c spells the same choice.
func (ex *executor) split(cx, cy *bv.Term) (p, c *bv.Term) {
	p, c, d := ex.b.True(), cx, cy
	if cx.Op == bv.OpAnd && cy.Op == bv.OpAnd {
		for i, kx := range cx.Kids {
			for j, ky := range cy.Kids {
				if kx == ky {
					p, c, d = kx, cx.Kids[1-i], cy.Kids[1-j]
				}
			}
		}
	}
	if (c.Op == bv.OpNot && c.Kids[0] == d) || (d.Op == bv.OpNot && d.Kids[0] == c) {
		return p, c
	}
	return nil, nil
}

// merge makes x the state that holds under cond and is x where sel
// holds and y elsewhere; without a cond, under the disjunction with x's
// condition selecting. It refuses when the two have made different
// numbers of calls (a call's occurrence index is its state's) or a cell
// holds values of two widths. A value or cell only one of them has is
// dropped (a use of it is a use outside the executed region); a cell
// only one has initialised reads as undef in the other. The walk is in
// layout order, not map order: term ids follow creation order, and the
// solver's search follows the ids.
func (ex *executor) merge(x, y *pathState, cond, sel *bv.Term) bool {
	if x.occur != y.occur {
		return false
	}
	for cell, cx := range x.mem {
		if cy := y.mem[cell]; cx.init && cy.init && cx.val.val.Width != cy.val.val.Width {
			return false
		}
	}
	if cond == nil {
		cond, sel = ex.b.BoolOr(x.cond, y.cond), x.cond
	}
	ex.merges++
	x.cond = cond
	for _, blk := range ex.fn.Blocks {
		for _, in := range blk.Instrs {
			vx, ok := x.vals[in]
			if !ok {
				continue
			}
			vy, ok := y.vals[in]
			if !ok {
				delete(x.vals, in)
				delete(x.mem, in)
				continue
			}
			x.vals[in] = ex.ite(sel, vx, vy)
			cx, cy := x.mem[in], y.mem[in]
			if !cx.init && !cy.init {
				continue // not an alloca, or a cell nothing was stored to
			}
			if !cx.init {
				cx.val = ex.undef(cy.val.val.Width)
			}
			if !cy.init {
				cy.val = ex.undef(cx.val.val.Width)
			}
			x.mem[in] = memCell{val: ex.ite(sel, cx.val, cy.val), init: true}
		}
	}
	return true
}

// undef is what undef, poison and uninitialised stack memory read as:
// poison (sound for the transformations in this subset; may over-reject).
func (ex *executor) undef(w int) symVal {
	return symVal{val: ex.b.Const(w, 0), poison: ex.b.True()}
}

// ite chooses between two symbolic values. A negated condition swaps
// the arms instead, so that a select and a merge over the same branch
// build one term whichever edge was the true one.
func (ex *executor) ite(c *bv.Term, t, f symVal) symVal {
	if c.Op == bv.OpNot {
		c, t, f = c.Kids[0], f, t
	}
	return symVal{val: ex.b.Ite(c, t.val, f.val), poison: ex.b.Ite(c, t.poison, f.poison)}
}

// runBlock executes the instructions of blk after its phis under state
// ps; its terminator puts the states that leave on the worklist.
func (ex *executor) runBlock(blk *ir.Block, ps *pathState) error {
	b := ex.b
	for _, in := range blk.Instrs {
		if in.Op == ir.OpPhi {
			continue
		}
		ex.steps++
		if ex.steps > ex.cfg.maxSteps {
			return &errPathLimit{"step budget exhausted (loop too deep?)"}
		}
		// Poll the context every 64 instruction visits: cheap against
		// term construction, frequent enough that cancellation lands
		// well inside one block.
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
			return ex.take(in.Succs[0], blk, ps, ps.cond, true)
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
				if err := ex.take(in.Succs[i+1], blk, ps, b.BoolAnd(ps.cond, eq), false); err != nil {
					return err
				}
				notAny = b.BoolAnd(notAny, b.Not(eq))
			}
			return ex.take(in.Succs[0], blk, ps, b.BoolAnd(ps.cond, notAny), true)
		case ir.OpCondBr:
			c, err := ex.operand(ps, in.Args[0])
			if err != nil {
				return err
			}
			// Branching on poison is UB.
			ex.addUB(b.BoolAnd(ps.cond, c.poison))
			tCond := b.BoolAnd(ps.cond, c.val)
			fCond := b.BoolAnd(ps.cond, b.Not(c.val))
			if err := ex.take(in.Succs[0], blk, ps, tCond, false); err != nil {
				return err
			}
			return ex.take(in.Succs[1], blk, ps, fCond, true)
		default:
			if err := ex.instr(ps, in); err != nil {
				return err
			}
		}
	}
	return &errUnsupported{"block without terminator"}
}

// take puts ps on the worklist as taking the edge from -> dst under
// cond — a copy of it unless this is the last edge out of from — and
// prunes an edge whose condition is statically false.
func (ex *executor) take(dst, from *ir.Block, ps *pathState, cond *bv.Term, last bool) error {
	if isFalse(cond) {
		return nil
	}
	if ex.paths++; ex.paths > ex.cfg.maxPaths {
		return &errPathLimit{"path budget exhausted"}
	}
	if !last {
		ps = ps.clone()
	}
	ps.cond = cond
	ex.pending = append(ex.pending, arrival{dst: dst, pred: from, ps: ps})
	return nil
}

func isFalse(t *bv.Term) bool {
	return t.Op == bv.OpConst && t.Val == 0
}

func (ex *executor) operand(ps *pathState, v ir.Value) (symVal, error) {
	b := ex.b
	switch x := v.(type) {
	case *ir.Const:
		return symVal{val: b.Const(x.Ty.Bits, x.Val), poison: b.False()}, nil
	case *ir.Undef, *ir.Poison:
		w, err := widthOf(v.Type())
		if err != nil {
			return symVal{}, err
		}
		return ex.undef(w), nil
	case *ir.GlobalRef:
		return symVal{val: b.Var(64, "glob$"+x.NameStr), poison: b.False()}, nil
	case *ir.Param:
		for i, p := range ex.fn.Params {
			if p == x {
				return ex.params[i], nil
			}
		}
	case *ir.Instr:
		if sv, ok := ps.vals[x]; ok {
			return sv, nil
		}
	}
	return symVal{}, &errUnsupported{"value defined outside executed region"}
}

func (ex *executor) instr(ps *pathState, in *ir.Instr) error {
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
		sv := ex.ite(c.val, t, f)
		sv.poison = b.BoolOr(c.poison, sv.poison)
		ps.vals[in] = sv
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
		w, errW := widthOf(in.Ty)
		if errW != nil {
			return errW
		}
		mc := ps.mem[cell]
		if !mc.init {
			ps.vals[in] = ex.undef(w)
			return nil
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
func (ex *executor) resolvePtr(ps *pathState, p ir.Value) (*ir.Instr, error) {
	in, ok := p.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return nil, &errUnsupported{"memory access through non-alloca pointer"}
	}
	if _, present := ps.mem[in]; !present {
		return nil, &errUnsupported{"memory access to out-of-scope alloca"}
	}
	return in, nil
}

func (ex *executor) binop(ps *pathState, in *ir.Instr, x, y symVal) symVal {
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

// unsignedWrap builds the condition that op wraps unsigned at width w.
func unsignedWrap(b *bv.Builder, op ir.Opcode, x, y *bv.Term, w int) *bv.Term {
	switch op {
	case ir.OpAdd:
		// wraps iff x + y < x
		return b.Cmp(bv.OpUlt, b.Bin(bv.OpAdd, x, y), x)
	case ir.OpSub:
		return b.Cmp(bv.OpUlt, x, y)
	case ir.OpMul:
		// wraps iff the product at 2w exceeds the w-bit range.
		xw := b.ZExt(x, 2*w)
		yw := b.ZExt(y, 2*w)
		prod := b.Bin(bv.OpMul, xw, yw)
		return b.Not(b.Eq(prod, b.ZExt(b.Trunc(prod, w), 2*w)))
	}
	return b.False()
}

// signedWrap builds the condition that op wraps signed at width w.
func signedWrap(b *bv.Builder, op ir.Opcode, x, y *bv.Term, w int) *bv.Term {
	xw := b.SExt(x, 2*w)
	yw := b.SExt(y, 2*w)
	var wide *bv.Term
	switch op {
	case ir.OpAdd:
		wide = b.Bin(bv.OpAdd, xw, yw)
	case ir.OpSub:
		wide = b.Bin(bv.OpSub, xw, yw)
	case ir.OpMul:
		wide = b.Bin(bv.OpMul, xw, yw)
	default:
		return b.False()
	}
	return b.Not(b.Eq(wide, b.SExt(b.Trunc(wide, w), 2*w)))
}
