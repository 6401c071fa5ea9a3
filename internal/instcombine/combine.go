// Package instcombine implements a from-scratch peephole optimizer
// over the IR subset, modeled on LLVM's -instcombine pass: local
// algebraic simplifications, canonicalizations, instruction
// combining, store-to-load forwarding within a block, and removal of
// dead non-escaping allocas (LLVM's isAllocSiteRemovable cleanup).
// Like the real pass it leaves the CFG untouched — control-flow
// folding belongs to simplifycfg, which this package deliberately
// does not perform (the paper's Fig. 10 emergent behaviour depends on
// that separation).
//
// The pass is the reproduction's reference labeler: training pairs
// are (O0-style IR, instcombine IR), and its output is the exact-match
// target of the reward function (Eq. 1).
package instcombine

import (
	"strconv"

	"veriopt/internal/ir"
)

// Run returns an optimized copy of f; the input is not modified. The
// output is renumbered into canonical form, and compact: a clone of the
// working copy, whose slabs would keep all the fixpoint deleted alive as
// long as the result (a corpus keeps it as a sample's Ref).
func Run(f *ir.Function) *ir.Function {
	g := ir.CloneFunc(f)
	RunInPlace(g)
	ir.RenumberFunc(g)
	return ir.CloneFunc(g)
}

// RunInPlace is Run on f itself, without the renumbering. It reports
// whether any rule or cleanup fired; false leaves f untouched.
func RunInPlace(f *ir.Function) bool {
	c := &combiner{fn: f}
	fired := false
	for iter := 0; iter < maxIterations; iter++ {
		changed := c.iterate()
		changed = forwardLoads(f) || changed
		changed = removeDeadAllocas(f) || changed
		changed = ir.DeadCodeElim(f, nil) > 0 || changed
		if !changed {
			break
		}
		fired = true
	}
	return fired
}

// maxIterations caps fixpoint iteration; real instcombine has a
// similar safety cap.
const maxIterations = 32

// combiner walks instructions applying simplification and rewrite
// rules until no rule fires.
type combiner struct {
	fn     *ir.Function
	nextID int
	// mutated records in-place edits (operand swaps) that do not
	// produce a replacement value but must still count as progress.
	mutated bool
}

// iterate runs one sweep over all instructions; reports whether
// anything changed.
func (c *combiner) iterate() bool {
	changed := false
	c.mutated = false
	for _, b := range c.fn.Blocks {
		// Index-based walk: rules may insert before the current
		// instruction, so re-find positions as we go.
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if !in.HasResult() {
				continue
			}
			// First try to simplify to an existing value.
			if v := simplify(c, in); v != nil && v != ir.Value(in) {
				ir.ReplaceAllUses(c.fn, in, v)
				changed = true
				continue
			}
			// Then try rewrite rules that build new instructions.
			if v := c.rewrite(b, &i, in); v != nil && v != ir.Value(in) {
				ir.ReplaceAllUses(c.fn, in, v)
				changed = true
			}
		}
	}
	return changed || c.mutated
}

// fresh returns a temporary name that does not collide with any
// existing t<N> name in the function (stepAt creates a new combiner
// per call, so the counter must start above what is already there).
func (c *combiner) fresh() string {
	if c.nextID == 0 {
		c.fn.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
			if n, ok := tempNumber(in.NameStr); ok && n > c.nextID {
				c.nextID = n
			}
		})
		for _, p := range c.fn.Params {
			if n, ok := tempNumber(p.NameStr); ok && n > c.nextID {
				c.nextID = n
			}
		}
	}
	c.nextID++
	return "t" + strconv.Itoa(c.nextID)
}

// tempNumber reads the N of a name that starts t<N>, as
// fmt.Sscanf(name, "t%d", &n) did at a scan state and an error per
// name: an optional sign, then digits up to the first other byte
// ("t12x" is 12). Sscanf also skipped blanks after the t; a name with
// one is not a t<digits> name fresh could collide with.
func tempNumber(name string) (int, bool) {
	if len(name) < 2 || name[0] != 't' {
		return 0, false
	}
	end := 1
	if name[1] == '+' || name[1] == '-' {
		end++
	}
	digits := end
	for end < len(name) && name[end] >= '0' && name[end] <= '9' {
		end++
	}
	if end == digits {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:end])
	return n, err == nil
}

// insertBefore places a new instruction immediately before position
// *idx in block b and advances the index.
func (c *combiner) insertBefore(b *ir.Block, idx *int, in *ir.Instr) *ir.Instr {
	if in.HasResult() && in.NameStr == "" {
		in.NameStr = c.fresh()
	}
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[*idx+1:], b.Instrs[*idx:])
	b.Instrs[*idx] = in
	*idx++
	return in
}

// Convenience constructors used by rules.

func (c *combiner) newBin(b *ir.Block, idx *int, op ir.Opcode, x, y ir.Value, fl ir.Flags) *ir.Instr {
	return c.insertBefore(b, idx, &ir.Instr{Op: op, Ty: x.Type(), Args: []ir.Value{x, y}, Flags: fl})
}

func (c *combiner) newICmp(b *ir.Block, idx *int, p ir.Pred, x, y ir.Value) *ir.Instr {
	return c.insertBefore(b, idx, &ir.Instr{Op: ir.OpICmp, Pred: p, Ty: ir.I1, Args: []ir.Value{x, y}})
}

func (c *combiner) newSelect(b *ir.Block, idx *int, cond, t, f ir.Value) *ir.Instr {
	return c.insertBefore(b, idx, &ir.Instr{Op: ir.OpSelect, Ty: t.Type(), Args: []ir.Value{cond, t, f}})
}

func (c *combiner) newCast(b *ir.Block, idx *int, op ir.Opcode, x ir.Value, to ir.Type) *ir.Instr {
	return c.insertBefore(b, idx, &ir.Instr{Op: op, Ty: to, Args: []ir.Value{x}})
}

// Matchers shared by the rule files.

// mConst matches an integer constant.
func mConst(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}

// mOp matches an instruction with the given opcode.
func mOp(v ir.Value, op ir.Opcode) (*ir.Instr, bool) {
	in, ok := v.(*ir.Instr)
	if !ok || in.Op != op {
		return nil, false
	}
	return in, true
}

// mBinC matches "op X, C" returning X and C.
func mBinC(v ir.Value, op ir.Opcode) (x ir.Value, c *ir.Const, ok bool) {
	in, isOp := mOp(v, op)
	if !isOp {
		return nil, nil, false
	}
	cc, isC := mConst(in.Args[1])
	if !isC {
		return nil, nil, false
	}
	return in.Args[0], cc, true
}

// intTy returns the integer type of a value (must be integer).
func intTy(v ir.Value) ir.IntType {
	return v.Type().(ir.IntType)
}

// cInt builds a constant of v's type.
func cInt(v ir.Value, n int64) *ir.Const {
	return ir.NewConst(intTy(v), n)
}

// isPow2 reports whether the constant is a power of two, returning
// log2.
func isPow2(c *ir.Const) (int, bool) {
	v := c.Val & c.Ty.Mask()
	if v == 0 || v&(v-1) != 0 {
		return 0, false
	}
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}
