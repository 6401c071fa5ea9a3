package instcombine

import "veriopt/internal/ir"

// rewrite applies instruction-combining rules that may create new
// instructions. Returns the replacement value or nil. b/idx locate
// the instruction so new instructions can be inserted before it.
func (c *combiner) rewrite(b *ir.Block, idx *int, in *ir.Instr) ir.Value {
	switch {
	case in.Op.IsBinary():
		if v := c.canonicalizeBin(b, idx, in); v != nil || c.swapped() {
			return v
		}
		if v := c.combineBin(b, idx, in); v != nil {
			return v
		}
	case in.Op == ir.OpICmp:
		if v := c.combineICmp(b, idx, in); v != nil || c.swapped() {
			return v
		}
	case in.Op == ir.OpSelect:
		if v := c.combineSelect(b, idx, in); v != nil {
			return v
		}
	case in.Op.IsCast():
		return c.combineCast(b, idx, in)
	}
	return c.rewriteExtended(b, idx, in)
}

// canonicalizeBin puts constants on the RHS of commutative ops and
// rewrites "sub x, C" as "add x, -C", matching LLVM canonical form.
func (c *combiner) canonicalizeBin(b *ir.Block, idx *int, in *ir.Instr) ir.Value {
	x, y := in.Args[0], in.Args[1]
	if in.Op.IsCommutative() {
		if _, ok := mConst(x); ok {
			if _, yc := mConst(y); !yc {
				c.swapOperands(in)
			}
		}
	}
	// sub x, C -> add x, -C (LLVM canonical form; safe to drop nsw/nuw
	// since the add has no flags).
	if in.Op == ir.OpSub {
		if cy, ok := mConst(y); ok && !cy.IsZero() {
			return c.newBin(b, idx, ir.OpAdd, x, cInt(in, -cy.Signed()), ir.Flags{})
		}
	}
	return nil
}

// combineBin folds chained constant operations and strength-reduces.
func (c *combiner) combineBin(b *ir.Block, idx *int, in *ir.Instr) ir.Value {
	x, y := in.Args[0], in.Args[1]
	cy, yIsC := mConst(y)

	// (op (op X, C1), C2) -> (op X, C1 ⊕ C2) for associative ops.
	if yIsC {
		switch in.Op {
		case ir.OpAdd:
			if x0, c1, ok := mBinC(x, ir.OpAdd); ok {
				return c.newBin(b, idx, ir.OpAdd, x0, cInt(in, c1.Signed()+cy.Signed()), ir.Flags{})
			}
		case ir.OpMul:
			if x0, c1, ok := mBinC(x, ir.OpMul); ok {
				return c.newBin(b, idx, ir.OpMul, x0, cInt(in, c1.Signed()*cy.Signed()), ir.Flags{})
			}
		case ir.OpAnd:
			if x0, c1, ok := mBinC(x, ir.OpAnd); ok {
				return c.newBin(b, idx, ir.OpAnd, x0, &ir.Const{Ty: intTy(in), Val: c1.Val & cy.Val}, ir.Flags{})
			}
		case ir.OpOr:
			if x0, c1, ok := mBinC(x, ir.OpOr); ok {
				return c.newBin(b, idx, ir.OpOr, x0, &ir.Const{Ty: intTy(in), Val: c1.Val | cy.Val}, ir.Flags{})
			}
		case ir.OpXor:
			if x0, c1, ok := mBinC(x, ir.OpXor); ok {
				return c.newBin(b, idx, ir.OpXor, x0, &ir.Const{Ty: intTy(in), Val: c1.Val ^ cy.Val}, ir.Flags{})
			}
		case ir.OpShl:
			// (shl (shl X, C1), C2) -> shl X, C1+C2 when in range;
			// when the total reaches the width every bit is shifted
			// out and the result is 0 (both stages were individually
			// in range, so no poison is lost).
			if x0, c1, ok := mBinC(x, ir.OpShl); ok {
				sum := c1.Val + cy.Val
				w := uint64(intTy(in).Bits)
				if c1.Val < w && cy.Val < w {
					if sum < w {
						return c.newBin(b, idx, ir.OpShl, x0, &ir.Const{Ty: intTy(in), Val: sum}, ir.Flags{})
					}
					return cInt(in, 0)
				}
			}
		case ir.OpLShr:
			if x0, c1, ok := mBinC(x, ir.OpLShr); ok {
				sum := c1.Val + cy.Val
				w := uint64(intTy(in).Bits)
				if c1.Val < w && cy.Val < w {
					if sum < w {
						return c.newBin(b, idx, ir.OpLShr, x0, &ir.Const{Ty: intTy(in), Val: sum}, ir.Flags{})
					}
					return cInt(in, 0)
				}
			}
		}
	}

	// Strength reduction with power-of-two constants.
	if yIsC {
		switch in.Op {
		case ir.OpMul:
			if k, ok := isPow2(cy); ok {
				// mul X, 2^k -> shl X, k. nuw/nsw carry over per LangRef.
				return c.newBin(b, idx, ir.OpShl, x, cInt(in, int64(k)), ir.Flags{NUW: in.Flags.NUW, NSW: in.Flags.NSW})
			}
		case ir.OpUDiv:
			if k, ok := isPow2(cy); ok {
				return c.newBin(b, idx, ir.OpLShr, x, cInt(in, int64(k)), ir.Flags{Exact: in.Flags.Exact})
			}
		case ir.OpURem:
			if _, ok := isPow2(cy); ok {
				return c.newBin(b, idx, ir.OpAnd, x, cInt(in, cy.Signed()-1), ir.Flags{})
			}
		case ir.OpSDiv:
			// sdiv X, 2^k -> ashr (add X, bias), k  where
			// bias = lshr (ashr X, w-1), w-k  rounds toward zero. Not
			// for k = w-1: that constant is MinInt, not +2^k, and
			// MinInt sdiv MinInt is 1 where the shift gives -1.
			if k, ok := isPow2(cy); ok && k > 0 && k < intTy(in).Bits-1 {
				w := intTy(in).Bits
				sign := c.newBin(b, idx, ir.OpAShr, x, cInt(in, int64(w-1)), ir.Flags{})
				bias := c.newBin(b, idx, ir.OpLShr, sign, cInt(in, int64(w-k)), ir.Flags{})
				biased := c.newBin(b, idx, ir.OpAdd, x, bias, ir.Flags{})
				return c.newBin(b, idx, ir.OpAShr, biased, cInt(in, int64(k)), ir.Flags{})
			}
		}
	}

	// add X, X -> shl X, 1
	if in.Op == ir.OpAdd && x == y {
		return c.newBin(b, idx, ir.OpShl, x, cInt(in, 1), ir.Flags{NUW: in.Flags.NUW, NSW: in.Flags.NSW})
	}

	// (xor (xor X, Y), Y) -> X and commuted variants.
	if in.Op == ir.OpXor {
		if ix, ok := mOp(x, ir.OpXor); ok {
			if ix.Args[0] == y {
				return ix.Args[1]
			}
			if ix.Args[1] == y {
				return ix.Args[0]
			}
		}
		if iy, ok := mOp(y, ir.OpXor); ok {
			if iy.Args[0] == x {
				return iy.Args[1]
			}
			if iy.Args[1] == x {
				return iy.Args[0]
			}
		}
	}

	// (and (or X, Y), X) -> X ; (or (and X, Y), X) -> X (absorption).
	if in.Op == ir.OpAnd {
		if ix, ok := mOp(x, ir.OpOr); ok && (ix.Args[0] == y || ix.Args[1] == y) {
			return y
		}
		if iy, ok := mOp(y, ir.OpOr); ok && (iy.Args[0] == x || iy.Args[1] == x) {
			return x
		}
	}
	if in.Op == ir.OpOr {
		if ix, ok := mOp(x, ir.OpAnd); ok && (ix.Args[0] == y || ix.Args[1] == y) {
			return y
		}
		if iy, ok := mOp(y, ir.OpAnd); ok && (iy.Args[0] == x || iy.Args[1] == x) {
			return x
		}
	}

	// add (sub 0, X), Y -> sub Y, X ; add X, (sub 0, Y) -> sub X, Y.
	if in.Op == ir.OpAdd {
		if ix, ok := mOp(x, ir.OpSub); ok {
			if c0, isZ := mConst(ix.Args[0]); isZ && c0.IsZero() {
				return c.newBin(b, idx, ir.OpSub, y, ix.Args[1], ir.Flags{})
			}
		}
		if iy, ok := mOp(y, ir.OpSub); ok {
			if c0, isZ := mConst(iy.Args[0]); isZ && c0.IsZero() {
				return c.newBin(b, idx, ir.OpSub, x, iy.Args[1], ir.Flags{})
			}
		}
	}

	// Known-bits driven: and X, C -> X when every bit the mask clears
	// is already known zero in X.
	if in.Op == ir.OpAnd && yIsC {
		kb := knownBits(x, 4)
		cleared := ^cy.Val & intTy(in).Mask()
		if cleared&^kb.zeros == 0 {
			return x
		}
	}
	return nil
}

// combineICmp canonicalizes and combines comparisons.
func (c *combiner) combineICmp(b *ir.Block, idx *int, in *ir.Instr) ir.Value {
	x, y := in.Args[0], in.Args[1]
	// Constant on the LHS: swap.
	if _, ok := mConst(x); ok {
		if _, yc := mConst(y); !yc {
			c.swapOperands(in)
			return nil
		}
	}
	cy, yIsC := mConst(y)

	// icmp P (add X, C1), C2 -> icmp P X, (C2-C1) for eq/ne (and for
	// ordered predicates only when the shifted range does not wrap,
	// which we conservatively skip).
	if yIsC && (in.Pred == ir.PredEQ || in.Pred == ir.PredNE) {
		if x0, c1, ok := mBinC(x, ir.OpAdd); ok {
			return c.newICmp(b, idx, in.Pred, x0, cInt(x, cy.Signed()-c1.Signed()))
		}
		// icmp eq (xor X, C1), C2 -> icmp eq X, C1^C2.
		if x0, c1, ok := mBinC(x, ir.OpXor); ok {
			return c.newICmp(b, idx, in.Pred, x0, &ir.Const{Ty: intTy(x), Val: c1.Val ^ cy.Val})
		}
	}

	// Known-bits range folds: compares whose outcome the known bits of
	// the LHS decide, e.g. icmp ult (and X, 7), 8 -> true.
	if yIsC {
		it := intTy(x)
		kb := knownBits(x, 4)
		umax := it.Mask() &^ kb.zeros // upper bound given known-zero bits
		umin := kb.ones               // lower bound given known-one bits
		cu := cy.Val & it.Mask()
		switch in.Pred {
		case ir.PredULT:
			if umax < cu {
				return ir.NewConst(ir.I1, 1)
			}
			if umin >= cu {
				return ir.NewConst(ir.I1, 0)
			}
		case ir.PredUGT:
			if umin > cu {
				return ir.NewConst(ir.I1, 1)
			}
			if umax <= cu {
				return ir.NewConst(ir.I1, 0)
			}
		case ir.PredULE:
			if umax <= cu {
				return ir.NewConst(ir.I1, 1)
			}
			if umin > cu {
				return ir.NewConst(ir.I1, 0)
			}
		case ir.PredUGE:
			if umin >= cu {
				return ir.NewConst(ir.I1, 1)
			}
			if umax < cu {
				return ir.NewConst(ir.I1, 0)
			}
		}
	}
	return nil
}

// combineSelect handles select canonicalizations that create casts.
func (c *combiner) combineSelect(b *ir.Block, idx *int, in *ir.Instr) ir.Value {
	cond, t, f := in.Args[0], in.Args[1], in.Args[2]
	it, ok := ir.IsInt(in.Ty)
	if !ok {
		return nil
	}
	tc, tIsC := mConst(t)
	fc, fIsC := mConst(f)
	// select C, 1, 0 -> zext C (widths > 1).
	if tIsC && fIsC && it.Bits > 1 && tc.IsOne() && fc.IsZero() {
		return c.newCast(b, idx, ir.OpZExt, cond, it)
	}
	// select C, 0, 1 -> zext (xor C, true).
	if tIsC && fIsC && it.Bits > 1 && tc.IsZero() && fc.IsOne() {
		inv := c.newBin(b, idx, ir.OpXor, cond, ir.NewConst(ir.I1, 1), ir.Flags{})
		return c.newCast(b, idx, ir.OpZExt, inv, it)
	}
	// select (icmp slt X, 0), -1, 0 -> ashr X, w-1 (sign splat).
	if ic, isCmp := mOp(cond, ir.OpICmp); isCmp && tIsC && fIsC {
		if cc, isC := mConst(ic.Args[1]); isC && cc.IsZero() && ic.Pred == ir.PredSLT &&
			tc.IsAllOnes() && fc.IsZero() && ic.Args[0].Type().Equal(in.Ty) {
			w := it.Bits
			return c.newBin(b, idx, ir.OpAShr, ic.Args[0], cInt(in, int64(w-1)), ir.Flags{})
		}
	}
	return nil
}

// combineCast merges cast chains.
func (c *combiner) combineCast(b *ir.Block, idx *int, in *ir.Instr) ir.Value {
	x := in.Args[0]
	to := in.Ty.(ir.IntType)
	switch in.Op {
	case ir.OpZExt:
		// zext(zext X) -> zext X.
		if ix, ok := mOp(x, ir.OpZExt); ok {
			return c.newCast(b, idx, ir.OpZExt, ix.Args[0], to)
		}
	case ir.OpSExt:
		if ix, ok := mOp(x, ir.OpSExt); ok {
			return c.newCast(b, idx, ir.OpSExt, ix.Args[0], to)
		}
		// sext(zext X) -> zext X (the zext already made it non-negative).
		if ix, ok := mOp(x, ir.OpZExt); ok {
			return c.newCast(b, idx, ir.OpZExt, ix.Args[0], to)
		}
	case ir.OpTrunc:
		// trunc(trunc X) -> trunc X.
		if ix, ok := mOp(x, ir.OpTrunc); ok {
			return c.newCast(b, idx, ir.OpTrunc, ix.Args[0], to)
		}
		// trunc(zext/sext X) to narrower-than-source -> trunc X;
		// to wider-than-source handled here, equal handled in simplify.
		if ix, ok := mOp(x, ir.OpZExt); ok {
			from := intTy(ix.Args[0])
			if to.Bits < from.Bits {
				return c.newCast(b, idx, ir.OpTrunc, ix.Args[0], to)
			}
			if to.Bits > from.Bits {
				return c.newCast(b, idx, ir.OpZExt, ix.Args[0], to)
			}
		}
		if ix, ok := mOp(x, ir.OpSExt); ok {
			from := intTy(ix.Args[0])
			if to.Bits < from.Bits {
				return c.newCast(b, idx, ir.OpTrunc, ix.Args[0], to)
			}
			if to.Bits > from.Bits {
				return c.newCast(b, idx, ir.OpSExt, ix.Args[0], to)
			}
		}
	}
	return nil
}
