// Package costmodel estimates execution latency, instruction count,
// and binary size for IR functions, mirroring the paper's metrics:
// latency sums per-instruction costs in the style of LLVM's
// getInstructionCost(..., TCK_Latency) on an AArch64 target; binary
// size estimates encoded .text bytes per lowered instruction.
package costmodel

import "veriopt/internal/ir"

// Latency values model a generic AArch64 core's scalar latencies, in
// cycles, matching the relative costs LLVM's TTI reports: cheap ALU
// ops 1, multiply 3, division ~12-20, loads 4, everything
// control-flow 1.
var latencyTable = map[ir.Opcode]int{
	ir.OpAdd: 1, ir.OpSub: 1,
	ir.OpAnd: 1, ir.OpOr: 1, ir.OpXor: 1,
	ir.OpShl: 1, ir.OpLShr: 1, ir.OpAShr: 1,
	ir.OpMul:  3,
	ir.OpUDiv: 12, ir.OpSDiv: 12, ir.OpURem: 15, ir.OpSRem: 15,
	ir.OpICmp: 1, ir.OpSelect: 1,
	ir.OpZExt: 1, ir.OpSExt: 1, ir.OpTrunc: 1,
	ir.OpFreeze:      0,
	ir.OpAlloca:      0, // folded into the frame setup
	ir.OpLoad:        4,
	ir.OpStore:       1,
	ir.OpCall:        4, // call overhead only; the callee is not modeled
	ir.OpPhi:         0, // resolved by register allocation
	ir.OpRet:         1,
	ir.OpBr:          1,
	ir.OpCondBr:      1,
	ir.OpSwitch:      2, // compare tree / jump table dispatch
	ir.OpUnreachable: 0,
}

// Latency returns the summed static latency estimate of a function,
// the analogue of summing getInstructionCost(TCK_Latency) over a
// module (see paper §IV-C). Wider-than-64-bit types do not occur.
func Latency(f *ir.Function) int {
	total := 0
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		c := latencyTable[in.Op]
		// 64-bit divisions are slower on AArch64.
		if in.Op.IsDivRem() {
			if it, ok := in.Ty.(ir.IntType); ok && it.Bits > 32 {
				c += 8
			}
		}
		total += c
	})
	return total
}

// instCount returns the number of IR instructions in the function
// (the paper's ICount metric).
func instCount(f *ir.Function) int { return f.NumInstrs() }

// encodedBytes estimates the .text bytes a lowered instruction
// occupies on a fixed-width 4-byte ISA. Some IR instructions lower to
// nothing (alloca/phi/freeze), some to several machine ops.
func encodedBytes(in *ir.Instr) int {
	switch in.Op {
	case ir.OpAlloca, ir.OpPhi, ir.OpFreeze, ir.OpUnreachable:
		return 0
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		return 4 // ubfx/sbfx/mov
	case ir.OpURem, ir.OpSRem:
		return 8 // div + msub
	case ir.OpSelect:
		return 8 // cmp feeding csel counted on the icmp; csel + maybe mov
	case ir.OpCall:
		return 4 + 4*len(in.Args) // bl plus arg moves
	case ir.OpCondBr:
		return 8 // cbz/cbnz or cmp+b.cond
	case ir.OpSwitch:
		return 4 + 8*len(in.Cases) // cmp+branch per case (compare tree)
	case ir.OpRet:
		return 4
	}
	// Immediates beyond the 12-bit encodable range each need their own
	// materializing mov: an instruction with two out-of-range constant
	// operands lowers to mov+mov+op, not mov+op.
	n := 4
	for _, a := range in.Args {
		if c, ok := a.(*ir.Const); ok && !fitsImm12(c.Signed()) {
			n += 4
		}
	}
	return n
}

// fitsImm12 reports whether v encodes directly as an AArch64
// add/sub-class immediate: a 12-bit unsigned value, with negative
// constants folding into the opposite opcode (add x, -5 → sub x, 5).
// The range is therefore symmetric at ±4095 — ±4096 already needs a
// materializing mov (the old v < -4096 check wrongly admitted -4096).
func fitsImm12(v int64) bool {
	if v < 0 {
		v = -v // MinInt64 stays negative and correctly fails the test
	}
	return v >= 0 && v <= 4095
}

// binarySize estimates the on-disk object size contribution of the
// function: encoded .text bytes plus a fixed prologue/epilogue,
// following the paper's .TEXT+.DATA (no .bss) measurement.
func binarySize(f *ir.Function) int {
	total := 8 // prologue/epilogue
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		total += encodedBytes(in)
	})
	return total
}

// Metrics bundles the three paper metrics for one function.
type Metrics struct {
	Latency int
	ICount  int
	Size    int
}

// Measure computes all three metrics.
func Measure(f *ir.Function) Metrics {
	return Metrics{Latency: Latency(f), ICount: instCount(f), Size: binarySize(f)}
}

// Speedup returns t(base)/t(opt), the paper's Eq. 3 ratio; both
// latencies are clamped to at least 1 cycle.
func Speedup(base, opt Metrics) float64 {
	b, o := base.Latency, opt.Latency
	if b < 1 {
		b = 1
	}
	if o < 1 {
		o = 1
	}
	return float64(b) / float64(o)
}
