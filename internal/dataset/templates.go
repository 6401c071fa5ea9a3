package dataset

import (
	"fmt"
	"math/rand"

	"veriopt/internal/ir"
)

// template generates one family of functions; instances vary in
// constants, widths, and shapes under a seeded RNG.
type template struct {
	name string
	// scenario classifies the family for corpus accounting, the load
	// harness, and per-scenario benchmark reporting: one of the
	// Scenario* constants below.
	scenario string
	// gen builds a program instance. Deterministic for a given RNG
	// state.
	gen func(rng *rand.Rand, id int) *program
}

// Scenario labels partition the template registry into the corpus
// taxonomy (DESIGN.md §17). The label rides on every generated Sample
// and flows through GenReport rollups, Split, and the load generator's
// per-scenario latency accounting.
const (
	// ScenarioScalar covers straight-line scalar arithmetic families.
	ScenarioScalar = "scalar"
	// ScenarioControlFlow covers multi-block CFG shapes — diamonds,
	// ladders, nested branches, switches — the feedstock of the
	// fold-branches / if-to-select / merge-blocks passes.
	ScenarioControlFlow = "control-flow"
	// ScenarioLoop covers bounded counted loops in varied shapes
	// (plain, branch-in-body, sequential, shift-accumulate).
	ScenarioLoop = "loop"
	// ScenarioWideInt covers i1/i8/i16/i64 width mixes and cast-heavy
	// shapes.
	ScenarioWideInt = "wide-int"
	// ScenarioAdversarial covers poison/UB edge cases, near-overflow
	// constants, and dead-store chains — inputs built to punish
	// unsound folds.
	ScenarioAdversarial = "adversarial"
)

var widths = []ir.IntType{ir.I8, ir.I16, ir.I32, ir.I64}

func anyWidth(rng *rand.Rand) ir.IntType { return widths[rng.Intn(len(widths))] }

func smallConst(rng *rand.Rand, ty ir.IntType) eConst {
	return eConst{ty: ty, val: int64(rng.Intn(64) - 16)}
}

func pow2Const2(rng *rand.Rand, ty ir.IntType) eConst {
	k := 1 + rng.Intn(ty.Bits/2)
	return eConst{ty: ty, val: 1 << uint(k)}
}

// p0 reads parameter 0, etc.
func p(i int) expr { return eParam{idx: i} }

func bin(op ir.Opcode, l, r expr) expr  { return eBin{op: op, l: l, r: r} }
func binN(op ir.Opcode, l, r expr) expr { return eBin{op: op, flags: ir.Flags{NSW: true}, l: l, r: r} }
func binU(op ir.Opcode, l, r expr) expr { return eBin{op: op, flags: ir.Flags{NUW: true}, l: l, r: r} }

// templates returns the full registry in stable order. Append-only:
// the scheduler and every seeded corpus depend on registry order.
func templates() []template {
	return []template{
		{name: "arith-chain", scenario: ScenarioScalar, gen: genArithChain},
		{name: "identity-mix", scenario: ScenarioScalar, gen: genIdentityMix},
		{name: "strength-mul", scenario: ScenarioScalar, gen: genStrengthMul},
		{name: "strength-div", scenario: ScenarioScalar, gen: genStrengthDiv},
		{name: "xor-cancel", scenario: ScenarioScalar, gen: genXorCancel},
		{name: "negation", scenario: ScenarioScalar, gen: genNegation},
		{name: "cmp-chain", scenario: ScenarioScalar, gen: genCmpChain},
		{name: "branch-max", scenario: ScenarioControlFlow, gen: genBranchMax},
		{name: "branch-clamp", scenario: ScenarioControlFlow, gen: genBranchClamp},
		{name: "sign-splat", scenario: ScenarioControlFlow, gen: genSignSplat},
		{name: "cast-chain", scenario: ScenarioWideInt, gen: genCastChain},
		{name: "known-bits", scenario: ScenarioScalar, gen: genKnownBits},
		{name: "const-ret", scenario: ScenarioScalar, gen: genConstRet},
		{name: "cond-call", scenario: ScenarioControlFlow, gen: genCondCall},
		{name: "call-arith", scenario: ScenarioScalar, gen: genCallArith},
		{name: "store-zero", scenario: ScenarioScalar, gen: genStoreZero},
		{name: "overflow-trap", scenario: ScenarioAdversarial, gen: genOverflowTrap},
		{name: "nonpow2-div", scenario: ScenarioScalar, gen: genNonPow2Div},
		{name: "bounded-loop", scenario: ScenarioLoop, gen: genBoundedLoop},
		{name: "deep-chain", scenario: ScenarioScalar, gen: genDeepChain},
		{name: "multi-var", scenario: ScenarioScalar, gen: genMultiVar},
		{name: "select-bool", scenario: ScenarioControlFlow, gen: genSelectBool},
		{name: "switch-table", scenario: ScenarioControlFlow, gen: genSwitchTable},
		// Scenario-corpus families (DESIGN.md §17): multi-block control
		// flow, wider loop shapes, bit-width mixes, adversarial edges.
		{name: "nested-branch", scenario: ScenarioControlFlow, gen: genNestedBranch},
		{name: "diamond-ladder", scenario: ScenarioControlFlow, gen: genDiamondLadder},
		{name: "branch-ladder", scenario: ScenarioControlFlow, gen: genBranchLadder},
		{name: "loop-branch", scenario: ScenarioLoop, gen: genLoopBranch},
		{name: "loop-double", scenario: ScenarioLoop, gen: genLoopDouble},
		{name: "loop-shift", scenario: ScenarioLoop, gen: genLoopShift},
		{name: "bool-mix", scenario: ScenarioWideInt, gen: genBoolMix},
		{name: "width-mix", scenario: ScenarioWideInt, gen: genWidthMix},
		{name: "narrow-rescue", scenario: ScenarioWideInt, gen: genNarrowRescue},
		{name: "near-overflow", scenario: ScenarioAdversarial, gen: genNearOverflow},
		{name: "poison-shift", scenario: ScenarioAdversarial, gen: genPoisonShift},
		{name: "dead-store", scenario: ScenarioAdversarial, gen: genDeadStore},
		{name: "guarded-div", scenario: ScenarioAdversarial, gen: genGuardedDiv},
	}
}

// genSwitchTable: a C switch over a masked value with small constant
// arms — exercises the switch terminator through the whole stack.
func genSwitchTable(rng *rand.Rand, id int) *program {
	ty := ir.I32
	nCases := 2 + rng.Intn(3)
	var cases []switchCase
	for i := 0; i < nCases; i++ {
		cases = append(cases, switchCase{
			val:  int64(i),
			body: []stmt{sAssign{name: "r", e: eConst{ty: ty, val: int64(rng.Intn(50) - 10)}}},
		})
	}
	return &program{
		name: fmt.Sprintf("switch_table_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "r", ty: ty, init: eConst{ty: ty, val: -1}},
			sSwitch{
				value: bin(ir.OpAnd, p(0), eConst{ty: ty, val: 7}),
				cases: cases,
				def:   []stmt{sAssign{name: "r", e: bin(ir.OpAdd, p(0), eConst{ty: ty, val: 1})}},
			},
			sRet{e: eVar{name: "r"}},
		},
	}
}

// genArithChain: r = ((p0 + c1) + c2) + c3 — constant folding chains.
func genArithChain(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	e := expr(p(0))
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		e = bin(ir.OpAdd, e, smallConst(rng, ty))
	}
	return &program{
		name: fmt.Sprintf("arith_chain_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genIdentityMix: identity-op noise around a real computation.
func genIdentityMix(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	core := bin(ir.OpMul, p(0), eConst{ty: ty, val: 3})
	wraps := []func(expr) expr{
		func(e expr) expr { return bin(ir.OpAdd, e, eConst{ty: ty, val: 0}) },
		func(e expr) expr { return bin(ir.OpMul, e, eConst{ty: ty, val: 1}) },
		func(e expr) expr { return bin(ir.OpOr, e, eConst{ty: ty, val: 0}) },
		func(e expr) expr { return bin(ir.OpXor, e, eConst{ty: ty, val: 0}) },
		func(e expr) expr { return bin(ir.OpAnd, e, eConst{ty: ty, val: -1}) },
		func(e expr) expr { return bin(ir.OpLShr, e, eConst{ty: ty, val: 0}) },
	}
	e := core
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		e = wraps[rng.Intn(len(wraps))](e)
	}
	return &program{
		name: fmt.Sprintf("identity_mix_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genStrengthMul: multiplications by powers of two.
func genStrengthMul(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	e := bin(ir.OpMul, p(0), pow2Const2(rng, ty))
	if rng.Intn(2) == 0 {
		e = bin(ir.OpAdd, e, p(1))
	} else {
		e = bin(ir.OpSub, e, p(1))
	}
	return &program{
		name: fmt.Sprintf("strength_mul_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genStrengthDiv: division/remainder by powers of two (udiv, urem,
// sdiv variants).
func genStrengthDiv(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	ops := []ir.Opcode{ir.OpUDiv, ir.OpURem, ir.OpSDiv}
	op := ops[rng.Intn(len(ops))]
	e := eBin{op: op, l: p(0), r: pow2Const2(rng, ty)}
	return &program{
		name: fmt.Sprintf("strength_div_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genXorCancel: (p0 ^ p1) ^ p1 and and/or absorption shapes.
func genXorCancel(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	var e expr
	switch rng.Intn(3) {
	case 0:
		e = bin(ir.OpXor, bin(ir.OpXor, p(0), p(1)), p(1))
	case 1:
		e = bin(ir.OpAnd, bin(ir.OpOr, p(0), p(1)), p(0))
	default:
		e = bin(ir.OpOr, bin(ir.OpAnd, p(0), p(1)), p(0))
	}
	return &program{
		name: fmt.Sprintf("xor_cancel_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genNegation: double negation and add-of-negation.
func genNegation(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	zero := eConst{ty: ty, val: 0}
	var e expr
	if rng.Intn(2) == 0 {
		e = bin(ir.OpSub, zero, bin(ir.OpSub, zero, p(0)))
	} else {
		e = bin(ir.OpAdd, p(0), bin(ir.OpSub, zero, p(1)))
	}
	return &program{
		name: fmt.Sprintf("negation_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genCmpChain: compare of shifted value against constant, returned as
// a widened bool.
func genCmpChain(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	c1 := smallConst(rng, ty)
	c2 := smallConst(rng, ty)
	cmp := eCmp{pred: ir.PredEQ, l: bin(ir.OpAdd, p(0), c1), r: c2}
	ret := eCast{op: ir.OpZExt, to: ir.I32, e: cmp}
	if ty.Bits >= 32 {
		ret = eCast{op: ir.OpZExt, to: ir.I64, e: cmp}
	}
	return &program{
		name: fmt.Sprintf("cmp_chain_%d", id), retTy: ret.to,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: ret}},
	}
}

// genBranchMax: if/else max/min via control flow — the diamond shape
// that turns into select.
func genBranchMax(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	pred := []ir.Pred{ir.PredSGT, ir.PredSLT, ir.PredUGT, ir.PredULT}[rng.Intn(4)]
	return &program{
		name: fmt.Sprintf("branch_max_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body: []stmt{
			sDecl{name: "r", ty: ty, init: p(1)},
			sIf{
				cond: eCmp{pred: pred, l: p(0), r: p(1)},
				then: []stmt{sAssign{name: "r", e: p(0)}},
			},
			sRet{e: eVar{name: "r"}},
		},
	}
}

// genBranchClamp: the paper Fig. 10 shape — a guarded affine rescale
// with an early constant path.
func genBranchClamp(rng *rand.Rand, id int) *program {
	ty := ir.I32
	limit := int64(4 + rng.Intn(20))
	return &program{
		name: fmt.Sprintf("branch_clamp_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sIf{
				cond: eCmp{pred: ir.PredULT, l: p(0), r: eConst{ty: ty, val: limit}},
				then: []stmt{sRet{e: eConst{ty: ty, val: 0}}},
			},
			sRet{e: bin(ir.OpAdd,
				bin(ir.OpLShr, bin(ir.OpAdd, p(0), eConst{ty: ty, val: -limit - 2}), eConst{ty: ty, val: 2}),
				eConst{ty: ty, val: 3})},
		},
	}
}

// genSignSplat: (x < 0) ? -1 : 0 via branches.
func genSignSplat(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	return &program{
		name: fmt.Sprintf("sign_splat_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "r", ty: ty, init: eConst{ty: ty, val: 0}},
			sIf{
				cond: eCmp{pred: ir.PredSLT, l: p(0), r: eConst{ty: ty, val: 0}},
				then: []stmt{sAssign{name: "r", e: eConst{ty: ty, val: -1}}},
			},
			sRet{e: eVar{name: "r"}},
		},
	}
}

// genCastChain: redundant widening chains.
func genCastChain(rng *rand.Rand, id int) *program {
	op := ir.OpZExt
	if rng.Intn(2) == 0 {
		op = ir.OpSExt
	}
	e := eCast{op: op, to: ir.I64,
		e: eCast{op: op, to: ir.I32,
			e: eCast{op: op, to: ir.I16, e: p(0)}}}
	return &program{
		name: fmt.Sprintf("cast_chain_%d", id), retTy: ir.I64,
		paramTys: []ir.IntType{ir.I8},
		body:     []stmt{sRet{e: e}},
	}
}

// genKnownBits: masked value compared against an out-of-range bound.
func genKnownBits(rng *rand.Rand, id int) *program {
	ty := ir.I32
	maskBits := 1 + rng.Intn(5)
	mask := int64(1)<<uint(maskBits) - 1
	cmp := eCmp{pred: ir.PredULT,
		l: bin(ir.OpAnd, p(0), eConst{ty: ty, val: mask}),
		r: eConst{ty: ty, val: mask + 1 + int64(rng.Intn(4))}}
	return &program{
		name: fmt.Sprintf("known_bits_%d", id), retTy: ir.I32,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: eCast{op: ir.OpZExt, to: ir.I32, e: cmp}}},
	}
}

// genConstRet: fully constant computation (paper Fig. 12: InstCombine
// precalculates everything).
func genConstRet(rng *rand.Rand, id int) *program {
	ty := ir.I32
	c1 := int64(rng.Intn(100) - 50)
	c2 := int64(rng.Intn(30) + 1)
	e := bin(ir.OpSub, bin(ir.OpMul, eConst{ty: ty, val: c1}, eConst{ty: ty, val: c2}),
		eConst{ty: ty, val: c1 + 9})
	return &program{
		name: fmt.Sprintf("const_ret_%d", id), retTy: ty,
		paramTys: nil,
		body: []stmt{
			sDecl{name: "t", ty: ty, init: e},
			sRet{e: eVar{name: "t"}},
		},
	}
}

// genCondCall: paper Fig. 9 shape — a conditional call with an alloca
// round trip around it.
func genCondCall(rng *rand.Rand, id int) *program {
	ty := ir.I64
	return &program{
		name: fmt.Sprintf("cond_call_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		decls: []*ir.Declaration{
			{NameStr: "foo", RetTy: ir.Void, ParamTys: []ir.Type{ir.I32}},
		},
		body: []stmt{
			sDecl{name: "sum", ty: ty, init: bin(ir.OpAdd, p(0), p(1))},
			sIf{
				cond: eCmp{pred: ir.PredULE, l: eVar{name: "sum"}, r: p(0)},
				then: []stmt{sExpr{e: eCall{callee: "foo", retTy: ir.Void,
					args: []expr{eConst{ty: ir.I32, val: 0}}}}},
			},
			sRet{e: eVar{name: "sum"}},
		},
	}
}

// genCallArith: call result used with removable identity arithmetic.
func genCallArith(rng *rand.Rand, id int) *program {
	ty := ir.I32
	return &program{
		name: fmt.Sprintf("call_arith_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		decls: []*ir.Declaration{
			{NameStr: "ext", RetTy: ir.I32, ParamTys: []ir.Type{ir.I32}},
		},
		body: []stmt{
			sDecl{name: "v", ty: ty, init: eCall{callee: "ext", retTy: ty, args: []expr{p(0)}}},
			sRet{e: bin(ir.OpAdd, bin(ir.OpMul, eVar{name: "v"}, eConst{ty: ty, val: 1}), eConst{ty: ty, val: 0})},
		},
	}
}

// genStoreZero: the paper Fig. 8 shape — zero-initialized slot
// reloaded and returned.
func genStoreZero(rng *rand.Rand, id int) *program {
	ty := ir.I64
	return &program{
		name: fmt.Sprintf("store_zero_%d", id), retTy: ty,
		paramTys: nil,
		body: []stmt{
			sDecl{name: "s", ty: ty, init: eConst{ty: ty, val: 0}},
			sRet{e: eVar{name: "s"}},
		},
	}
}

// genOverflowTrap: comparisons that look foldable but are overflow
// sensitive — adversarial cases where hallucinated folds fail Alive.
func genOverflowTrap(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	c := int64(1 + rng.Intn(9))
	cmp := eCmp{pred: ir.PredSLT, l: p(0), r: bin(ir.OpAdd, p(0), eConst{ty: ty, val: c})}
	return &program{
		name: fmt.Sprintf("overflow_trap_%d", id), retTy: ir.I32,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: eCast{op: ir.OpZExt, to: ir.I32, e: cmp}}},
	}
}

// genNonPow2Div: divisions instcombine keeps — tie cases.
func genNonPow2Div(rng *rand.Rand, id int) *program {
	ty := ir.I32
	divisors := []int64{3, 5, 6, 7, 9, 10, 11, 100}
	op := []ir.Opcode{ir.OpSDiv, ir.OpUDiv, ir.OpSRem}[rng.Intn(3)]
	e := eBin{op: op, l: p(0), r: eConst{ty: ty, val: divisors[rng.Intn(len(divisors))]}}
	return &program{
		name: fmt.Sprintf("nonpow2_div_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genBoundedLoop: a short counted loop (validatable by bounded
// unrolling).
func genBoundedLoop(rng *rand.Rand, id int) *program {
	ty := ir.I32
	n := int64(2 + rng.Intn(3))
	return &program{
		name: fmt.Sprintf("bounded_loop_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "i", ty: ty},
			sDecl{name: "acc", ty: ty, init: p(0)},
			sFor{ivar: "i", count: n, body: []stmt{
				sAssign{name: "acc", e: bin(ir.OpAdd, eVar{name: "acc"}, eConst{ty: ty, val: 1})},
			}},
			sRet{e: eVar{name: "acc"}},
		},
	}
}

// genDeepChain: long dependent chains — costly to fully optimize
// within a bounded episode, producing the paper's "worse than
// instcombine" tail.
func genDeepChain(rng *rand.Rand, id int) *program {
	ty := ir.I32
	var body []stmt
	body = append(body, sDecl{name: "a", ty: ty, init: p(0)})
	n := 6 + rng.Intn(6)
	for i := 0; i < n; i++ {
		var e expr
		switch rng.Intn(4) {
		case 0:
			e = bin(ir.OpAdd, eVar{name: "a"}, smallConst(rng, ty))
		case 1:
			e = bin(ir.OpMul, eVar{name: "a"}, eConst{ty: ty, val: 2})
		case 2:
			e = bin(ir.OpXor, eVar{name: "a"}, eConst{ty: ty, val: 0})
		default:
			e = bin(ir.OpAnd, eVar{name: "a"}, eConst{ty: ty, val: -1})
		}
		body = append(body, sAssign{name: "a", e: e})
	}
	body = append(body, sRet{e: eVar{name: "a"}})
	return &program{
		name: fmt.Sprintf("deep_chain_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body:     body,
	}
}

// genMultiVar: several interacting locals.
func genMultiVar(rng *rand.Rand, id int) *program {
	ty := ir.I32
	return &program{
		name: fmt.Sprintf("multi_var_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty, ty},
		body: []stmt{
			sDecl{name: "x", ty: ty, init: bin(ir.OpAdd, p(0), p(1))},
			sDecl{name: "y", ty: ty, init: bin(ir.OpMul, eVar{name: "x"}, eConst{ty: ty, val: 4})},
			sDecl{name: "z", ty: ty, init: bin(ir.OpSub, eVar{name: "y"}, p(2))},
			sRet{e: bin(ir.OpAdd, eVar{name: "z"}, eConst{ty: ty, val: 0})},
		},
	}
}

// genNestedBranch: a diamond nested inside one arm of an outer
// diamond — three-leaf CFG feeding fold-branches and if-to-select.
func genNestedBranch(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	outer := []ir.Pred{ir.PredSGT, ir.PredSLT}[rng.Intn(2)]
	inner := []ir.Pred{ir.PredUGT, ir.PredULT}[rng.Intn(2)]
	return &program{
		name: fmt.Sprintf("nested_branch_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body: []stmt{
			sDecl{name: "r", ty: ty, init: smallConst(rng, ty)},
			sIf{
				cond: eCmp{pred: outer, l: p(0), r: smallConst(rng, ty)},
				then: []stmt{
					sIf{
						cond: eCmp{pred: inner, l: p(1), r: smallConst(rng, ty)},
						then: []stmt{sAssign{name: "r", e: p(0)}},
						els:  []stmt{sAssign{name: "r", e: p(1)}},
					},
				},
				els: []stmt{sAssign{name: "r", e: bin(ir.OpXor, p(0), p(1))}},
			},
			sRet{e: eVar{name: "r"}},
		},
	}
}

// genDiamondLadder: two sequential if/else diamonds over one
// accumulator — the ladder CFG merge-blocks and if-to-select chew
// through, with an identity op hidden in one arm.
func genDiamondLadder(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	return &program{
		name: fmt.Sprintf("diamond_ladder_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body: []stmt{
			sDecl{name: "r", ty: ty, init: p(0)},
			sIf{
				cond: eCmp{pred: ir.PredSLT, l: p(0), r: smallConst(rng, ty)},
				then: []stmt{sAssign{name: "r", e: bin(ir.OpAdd, eVar{name: "r"}, smallConst(rng, ty))}},
				els:  []stmt{sAssign{name: "r", e: bin(ir.OpXor, eVar{name: "r"}, smallConst(rng, ty))}},
			},
			sIf{
				cond: eCmp{pred: ir.PredULT, l: p(1), r: smallConst(rng, ty)},
				then: []stmt{sAssign{name: "r", e: bin(ir.OpAdd, eVar{name: "r"}, eConst{ty: ty, val: 0})}},
				els:  []stmt{sAssign{name: "r", e: bin(ir.OpSub, eVar{name: "r"}, p(1))}},
			},
			sRet{e: eVar{name: "r"}},
		},
	}
}

// genBranchLadder: an else-if ladder of early returns over increasing
// thresholds — the classic C range-dispatch shape.
func genBranchLadder(rng *rand.Rand, id int) *program {
	ty := ir.I32
	c1 := int64(rng.Intn(10))
	c2 := c1 + 1 + int64(rng.Intn(20))
	return &program{
		name: fmt.Sprintf("branch_ladder_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sIf{
				cond: eCmp{pred: ir.PredSLT, l: p(0), r: eConst{ty: ty, val: c1}},
				then: []stmt{sRet{e: eConst{ty: ty, val: int64(rng.Intn(8))}}},
			},
			sIf{
				cond: eCmp{pred: ir.PredSLT, l: p(0), r: eConst{ty: ty, val: c2}},
				then: []stmt{sRet{e: bin(ir.OpAnd, p(0), eConst{ty: ty, val: 7})}},
			},
			sRet{e: bin(ir.OpAdd, p(0), smallConst(rng, ty))},
		},
	}
}

// genLoopBranch: a counted loop with a data-dependent branch in the
// body — path count grows as 2^n, still within bounded validation.
func genLoopBranch(rng *rand.Rand, id int) *program {
	ty := ir.I32
	n := int64(2 + rng.Intn(2))
	return &program{
		name: fmt.Sprintf("loop_branch_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "i", ty: ty},
			sDecl{name: "acc", ty: ty, init: p(0)},
			sFor{ivar: "i", count: n, body: []stmt{
				sIf{
					cond: eCmp{pred: ir.PredSLT, l: eVar{name: "acc"}, r: eConst{ty: ty, val: 16}},
					then: []stmt{sAssign{name: "acc", e: bin(ir.OpAdd, eVar{name: "acc"}, eConst{ty: ty, val: 5})}},
					els:  []stmt{sAssign{name: "acc", e: bin(ir.OpXor, eVar{name: "acc"}, eConst{ty: ty, val: 3})}},
				},
			}},
			sRet{e: eVar{name: "acc"}},
		},
	}
}

// genLoopDouble: two sequential counted loops sharing the induction
// slot — back-to-back loop CFGs with different step ops.
func genLoopDouble(rng *rand.Rand, id int) *program {
	ty := ir.I32
	n1 := int64(2 + rng.Intn(2))
	n2 := int64(2 + rng.Intn(2))
	return &program{
		name: fmt.Sprintf("loop_double_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "i", ty: ty},
			sDecl{name: "acc", ty: ty, init: p(0)},
			sFor{ivar: "i", count: n1, body: []stmt{
				sAssign{name: "acc", e: bin(ir.OpAdd, eVar{name: "acc"}, smallConst(rng, ty))},
			}},
			sFor{ivar: "i", count: n2, body: []stmt{
				sAssign{name: "acc", e: bin(ir.OpXor, eVar{name: "acc"}, eConst{ty: ty, val: 0})},
			}},
			sRet{e: eVar{name: "acc"}},
		},
	}
}

// genLoopShift: a shift-accumulate loop — unrolled it becomes the
// accumulator chain shape the incremental solver sessions were built
// for.
func genLoopShift(rng *rand.Rand, id int) *program {
	ty := ir.I32
	n := int64(2 + rng.Intn(3))
	return &program{
		name: fmt.Sprintf("loop_shift_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "i", ty: ty},
			sDecl{name: "acc", ty: ty, init: p(0)},
			sFor{ivar: "i", count: n, body: []stmt{
				sAssign{name: "acc", e: bin(ir.OpAdd, bin(ir.OpShl, eVar{name: "acc"}, eConst{ty: ty, val: 1}), eConst{ty: ty, val: 1})},
			}},
			sRet{e: eVar{name: "acc"}},
		},
	}
}

// genBoolMix: i1-typed logic over comparison results — exercises the
// 1-bit width through the whole stack (lowering, solver, cost model).
func genBoolMix(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	a := eCmp{pred: ir.PredSLT, l: p(0), r: smallConst(rng, ty)}
	b := eCmp{pred: ir.PredULT, l: p(1), r: smallConst(rng, ty)}
	var e expr
	switch rng.Intn(3) {
	case 0:
		e = bin(ir.OpAnd, a, b)
	case 1:
		e = bin(ir.OpOr, a, b)
	default:
		// (a ^ b) ^ b cancels back to a at i1.
		e = bin(ir.OpXor, bin(ir.OpXor, a, b), b)
	}
	return &program{
		name: fmt.Sprintf("bool_mix_%d", id), retTy: ir.I32,
		paramTys: []ir.IntType{ty, ty},
		body:     []stmt{sRet{e: eCast{op: ir.OpZExt, to: ir.I32, e: e}}},
	}
}

// genWidthMix: i64 truncated through i16/i8 arithmetic and widened
// back — the trunc/op/ext sandwiches instcombine narrows.
func genWidthMix(rng *rand.Rand, id int) *program {
	mid := []ir.IntType{ir.I8, ir.I16}[rng.Intn(2)]
	inner := bin(ir.OpAdd, eCast{op: ir.OpTrunc, to: mid, e: p(0)}, smallConst(rng, mid))
	if rng.Intn(2) == 0 {
		inner = bin(ir.OpXor, inner, eCast{op: ir.OpTrunc, to: mid, e: p(1)})
	}
	ext := ir.OpZExt
	if rng.Intn(2) == 0 {
		ext = ir.OpSExt
	}
	return &program{
		name: fmt.Sprintf("width_mix_%d", id), retTy: ir.I64,
		paramTys: []ir.IntType{ir.I64, ir.I64},
		body:     []stmt{sRet{e: bin(ir.OpAnd, eCast{op: ext, to: ir.I64, e: inner}, eConst{ty: ir.I64, val: 0xffff})}},
	}
}

// genNarrowRescue: an i8 value widened to i64, operated on with
// constants that fit i8, and truncated back — the whole wide detour is
// removable.
func genNarrowRescue(rng *rand.Rand, id int) *program {
	wide := eCast{op: ir.OpZExt, to: ir.I64, e: p(0)}
	e := bin(ir.OpAdd, wide, eConst{ty: ir.I64, val: int64(rng.Intn(100))})
	e = bin(ir.OpAnd, e, eConst{ty: ir.I64, val: 0xff})
	return &program{
		name: fmt.Sprintf("narrow_rescue_%d", id), retTy: ir.I16,
		paramTys: []ir.IntType{ir.I8},
		body:     []stmt{sRet{e: eCast{op: ir.OpTrunc, to: ir.I16, e: e}}},
	}
}

// genNearOverflow: nsw/nuw arithmetic with constants parked at the
// type's limits — hallucinated folds that ignore the wrap flags fail
// Alive here, and legitimate flag-aware folds (x +nsw C sgt x → true)
// must survive it.
func genNearOverflow(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	max := int64(1)<<uint(ty.Bits-1) - 1
	c := max - int64(rng.Intn(4))
	var e expr
	switch rng.Intn(3) {
	case 0:
		// x +nsw (near-max) compared against x.
		e = eCast{op: ir.OpZExt, to: ir.I32,
			e: eCmp{pred: ir.PredSGT, l: binN(ir.OpAdd, p(0), eConst{ty: ty, val: c}), r: p(0)}}
	case 1:
		// nuw near the unsigned ceiling: x +nuw (2^bits - small).
		e = eCast{op: ir.OpZExt, to: ir.I32,
			e: eCmp{pred: ir.PredUGE, l: binU(ir.OpAdd, p(0), eConst{ty: ty, val: -1 - int64(rng.Intn(3))}), r: p(0)}}
	default:
		// Near-max constant arithmetic without flags: must wrap honestly.
		e = eCast{op: ir.OpZExt, to: ir.I32, e: eCmp{pred: ir.PredSLT,
			l: bin(ir.OpAdd, p(0), eConst{ty: ty, val: c}), r: eConst{ty: ty, val: -max}}}
	}
	return &program{
		name: fmt.Sprintf("near_overflow_%d", id), retTy: ir.I32,
		paramTys: []ir.IntType{ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genPoisonShift: shift amounts at and beyond the type width — the
// at-width case is poison, so any fold must preserve (or refine) that
// poison rather than invent a defined value.
func genPoisonShift(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	k := int64(ty.Bits - 1 + rng.Intn(3)) // bits-1 (defined) .. bits+1 (poison)
	op := []ir.Opcode{ir.OpShl, ir.OpLShr, ir.OpAShr}[rng.Intn(3)]
	e := bin(ir.OpOr, bin(op, p(0), eConst{ty: ty, val: k}), p(1))
	return &program{
		name: fmt.Sprintf("poison_shift_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genDeadStore: a chain of stores to one slot, every one but the last
// dead — store forwarding plus dead-store elimination feedstock.
func genDeadStore(rng *rand.Rand, id int) *program {
	ty := anyWidth(rng)
	n := 2 + rng.Intn(3)
	body := []stmt{sDecl{name: "s", ty: ty, init: smallConst(rng, ty)}}
	for i := 0; i < n; i++ {
		body = append(body, sAssign{name: "s", e: smallConst(rng, ty)})
	}
	body = append(body,
		sAssign{name: "s", e: bin(ir.OpAdd, p(0), smallConst(rng, ty))},
		sRet{e: eVar{name: "s"}})
	return &program{
		name: fmt.Sprintf("dead_store_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body:     body,
	}
}

// genGuardedDiv: division by a symbolic divisor forced nonzero with
// `| 1` — UB-adjacent without being UB, and expensive to reason about
// if a fold touches the divisor.
func genGuardedDiv(rng *rand.Rand, id int) *program {
	ty := []ir.IntType{ir.I8, ir.I16}[rng.Intn(2)] // narrow keeps solver cost bounded
	op := []ir.Opcode{ir.OpUDiv, ir.OpURem}[rng.Intn(2)]
	e := eBin{op: op, l: p(0), r: bin(ir.OpOr, p(1), eConst{ty: ty, val: 1})}
	return &program{
		name: fmt.Sprintf("guarded_div_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty, ty},
		body:     []stmt{sRet{e: e}},
	}
}

// genSelectBool: boolean materialization through branches.
func genSelectBool(rng *rand.Rand, id int) *program {
	ty := ir.I32
	c := smallConst(rng, ty)
	return &program{
		name: fmt.Sprintf("select_bool_%d", id), retTy: ty,
		paramTys: []ir.IntType{ty},
		body: []stmt{
			sDecl{name: "r", ty: ty, init: eConst{ty: ty, val: 0}},
			sIf{
				cond: eCmp{pred: ir.PredSGT, l: p(0), r: c},
				then: []stmt{sAssign{name: "r", e: eConst{ty: ty, val: 1}}},
			},
			sRet{e: eVar{name: "r"}},
		},
	}
}
