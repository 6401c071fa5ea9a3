package ir

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// checkVerify holds VerifyFunc to the map-based reference in
// ref_test.go: the same accept or reject and, on reject, the same
// message.
func checkVerify(t *testing.T, f *Function) {
	t.Helper()
	got, want := VerifyFunc(f), refVerifyFunc(f)
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Errorf("VerifyFunc(@%s) = %v, reference %v\n%s", f.NameStr, got, want, FuncString(f))
	}
}

// checkCFG compares the dense analysis of f with the reference's maps:
// predecessor lists in order, reachability, immediate dominators node
// by node, and the dominance relation over every pair of blocks.
func checkCFG(t *testing.T, f *Function) {
	t.Helper()
	c := NewCFG(f)
	preds, reach, idom := refPreds(f), refReachable(f), refDominators(f)
	for i, b := range f.Blocks {
		if got := c.Index(b); got != i {
			t.Fatalf("@%s: Index(%s) = %d, want %d", f.NameStr, b.NameStr, got, i)
		}
		var got []*Block
		for _, p := range c.Preds(i) {
			got = append(got, f.Blocks[p])
		}
		if !slices.Equal(got, preds[b]) {
			t.Errorf("@%s: Preds(%s) = %v, reference %v", f.NameStr, b.NameStr, blockNames(got), blockNames(preds[b]))
		}
		if c.Reachable(i) != reach[b] {
			t.Errorf("@%s: Reachable(%s) = %v, reference %v", f.NameStr, b.NameStr, c.Reachable(i), reach[b])
		}
		if c.idom != nil {
			var got *Block
			if d := c.idom[i]; d >= 0 {
				got = f.Blocks[d]
			}
			if got != idom[b] {
				t.Errorf("@%s: idom(%s) = %v, reference %v", f.NameStr, b.NameStr, blockNames([]*Block{got}), blockNames([]*Block{idom[b]}))
			}
		}
		for j, a := range f.Blocks {
			if got, want := c.Dominates(j, i), refDominates(idom, a, b); got != want {
				t.Errorf("@%s: Dominates(%s, %s) = %v, reference %v", f.NameStr, a.NameStr, b.NameStr, got, want)
			}
		}
	}
	if c.Index(&Block{NameStr: "stranger"}) != -1 || c.Index(nil) != -1 {
		t.Errorf("@%s: Index of a block outside the function is not -1", f.NameStr)
	}
}

func blockNames(bs []*Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = "<nil>"
		if b != nil {
			out[i] = b.NameStr
		}
	}
	return out
}

// illFormed is the table of builder-made functions the verifier and the
// reference must agree on: want is a substring of the expected message,
// "" for a function both accept.
var illFormed = []struct {
	name, want string
	build      func() *Function
}{
	{"well-formed diamond", "", func() *Function {
		b, _, then, els, join := diamond()
		b.SetBlock(then)
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{x, then}, Incoming{b.Param(0), els}))
		return b.Fn
	}},
	{"use before def", "used before definition in block entry", func() *Function {
		b := NewBuilder("f", I32, I32)
		b.NewBlock("entry")
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		y := b.Bin(OpMul, x, x)
		b.Ret(y)
		blk := b.Fn.Blocks[0]
		blk.Instrs[0], blk.Instrs[1] = blk.Instrs[1], blk.Instrs[0]
		return b.Fn
	}},
	{"non-dominating def across a diamond", "does not dominate use in join", func() *Function {
		b, _, then, els, join := diamond()
		b.SetBlock(then)
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(x)
		return b.Fn
	}},
	{"phi with too few incomings", "has 1 incomings for 2 predecessors", func() *Function {
		b, _, then, els, join := diamond()
		b.SetBlock(then)
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{NewConst(I32, 7), then}))
		return b.Fn
	}},
	{"phi incoming from a non-predecessor", "entry is not a predecessor of join", func() *Function {
		b, entry, then, els, join := diamond()
		b.SetBlock(then)
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{NewConst(I32, 7), then}, Incoming{NewConst(I32, 8), entry}))
		return b.Fn
	}},
	{"duplicate incoming", "duplicate incoming block then", func() *Function {
		b, _, then, els, join := diamond()
		b.SetBlock(then)
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{NewConst(I32, 7), then}, Incoming{NewConst(I32, 8), then}))
		return b.Fn
	}},
	{"phi incoming type", "incoming type i8 != phi type i32", func() *Function {
		b, _, then, els, join := diamond()
		b.SetBlock(then)
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{NewConst(I32, 7), then}, Incoming{NewConst(I8, 8), els}))
		return b.Fn
	}},
	{"phi incoming does not dominate its edge", "incoming %x does not dominate predecessor else", func() *Function {
		b, _, then, els, join := diamond()
		b.SetBlock(then)
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		x.NameStr = "x"
		b.Br(join)
		b.SetBlock(els)
		b.Br(join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{x, then}, Incoming{x, els}))
		return b.Fn
	}},
	{"both arms on one block", "duplicate incoming block entry", func() *Function {
		b := NewBuilder("f", I32, I32)
		entry := b.NewBlock("entry")
		join := &Block{NameStr: "join", Parent: b.Fn}
		b.CondBr(b.ICmp(PredEQ, b.Param(0), NewConst(I32, 0)), join, join)
		b.Fn.Blocks = append(b.Fn.Blocks, join)
		b.SetBlock(join)
		b.Ret(b.phi(I32, Incoming{NewConst(I32, 1), entry}, Incoming{NewConst(I32, 2), entry}))
		return b.Fn
	}},
	{"unreachable block with garbage", "", func() *Function {
		b := NewBuilder("f", I32, I32)
		b.NewBlock("entry")
		b.Ret(b.Param(0))
		dead := b.NewBlock("dead")
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		y := b.Bin(OpMul, x, x)
		b.Ret(b.phi(I32, Incoming{y, dead}, Incoming{x, dead}))
		dead.Instrs[0], dead.Instrs[1] = dead.Instrs[1], dead.Instrs[0]
		dead.Instrs[0], dead.Instrs[2] = dead.Instrs[2], dead.Instrs[0]
		dead.Instrs[1], dead.Instrs[2] = dead.Instrs[2], dead.Instrs[1]
		return b.Fn
	}},
	{"use of a value from an unreachable block", "does not dominate use in entry", func() *Function {
		b := NewBuilder("f", I32, I32)
		entry := b.NewBlock("entry")
		b.NewBlock("dead")
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		b.Ret(x)
		b.SetBlock(entry)
		b.Ret(x)
		return b.Fn
	}},
	{"incoming from an unreachable predecessor", "", func() *Function {
		b := NewBuilder("f", I32, I32)
		entry := b.NewBlock("entry")
		exit := &Block{NameStr: "exit", Parent: b.Fn}
		b.Br(exit)
		dead := b.NewBlock("dead")
		b.Br(exit)
		b.Fn.Blocks = append(b.Fn.Blocks, exit)
		b.SetBlock(exit)
		b.Ret(b.phi(I32, Incoming{b.Param(0), entry}, Incoming{NewConst(I32, 0), dead}))
		return b.Fn
	}},
	{"self-loop single block", "", func() *Function {
		b := NewBuilder("spin", Void)
		b.Br(b.NewBlock("self"))
		return b.Fn
	}},
	{"self-loop single block with its phi", "", func() *Function {
		b := NewBuilder("spin", Void, I32)
		self := b.NewBlock("self")
		p := b.phi(I32, Incoming{b.Param(0), self})
		b.Bin(OpAdd, p, p)
		b.Br(self)
		return b.Fn
	}},
	{"self-loop single block, phi without its edge", "has 0 incomings for 1 predecessors", func() *Function {
		b := NewBuilder("spin", Void, I32)
		self := b.NewBlock("self")
		b.phi(I32)
		b.Br(self)
		return b.Fn
	}},
	{"single block, phi with an edge it does not have", "has 1 incomings for 0 predecessors", func() *Function {
		b := NewBuilder("f", I32, I32)
		entry := b.NewBlock("entry")
		b.Ret(b.phi(I32, Incoming{b.Param(0), entry}))
		return b.Fn
	}},
	{"self-loop single block, use before def", "used before definition in block self", func() *Function {
		b := NewBuilder("spin", Void, I32)
		self := b.NewBlock("self")
		x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
		b.Bin(OpMul, x, x)
		b.Br(self)
		self.Instrs[0], self.Instrs[1] = self.Instrs[1], self.Instrs[0]
		return b.Fn
	}},
	{"irreducible loop", "", func() *Function { return irreducible(false) }},
	{"irreducible loop, def in one entry of it used in the other", "does not dominate use in right", func() *Function { return irreducible(true) }},
	{"value of another function", "used in entry but defined outside function", func() *Function {
		other := NewBuilder("g", I32, I32)
		other.NewBlock("entry")
		x := other.Bin(OpAdd, other.Param(0), NewConst(I32, 1))
		x.NameStr = "x"
		b := NewBuilder("f", I32, I32)
		b.NewBlock("entry")
		b.Ret(b.Bin(OpMul, x, b.Param(0)))
		return b.Fn
	}},
	{"phi value of another function", "references value defined outside function", func() *Function {
		other := NewBuilder("g", I32, I32)
		other.NewBlock("entry")
		x := other.Bin(OpAdd, other.Param(0), NewConst(I32, 1))
		b := NewBuilder("f", Void, I32)
		self := b.NewBlock("self")
		b.phi(I32, Incoming{x, self})
		b.Br(self)
		return b.Fn
	}},
	{"store used as a value", "defined outside function", func() *Function {
		b := NewBuilder("f", Void, I32)
		b.NewBlock("entry")
		slot := b.Alloca(I32)
		st := b.Store(b.Param(0), slot)
		b.Store(st, slot)
		b.Ret(nil)
		return b.Fn
	}},
	{"duplicate name", "duplicate name %x", func() *Function {
		b := NewBuilder("f", I32, I32)
		b.NewBlock("entry")
		b.Bin(OpAdd, b.Param(0), NewConst(I32, 1)).NameStr = "x"
		y := b.Bin(OpAdd, b.Param(0), NewConst(I32, 2))
		y.NameStr = "x"
		b.Ret(y)
		return b.Fn
	}},
	{"result named as a parameter", "duplicate name %0", func() *Function {
		b := NewBuilder("f", I32, I32)
		b.NewBlock("entry")
		y := b.Bin(OpAdd, b.Param(0), NewConst(I32, 2))
		y.NameStr = "0"
		b.Ret(y)
		return b.Fn
	}},
	{"duplicate block", "duplicate block entry", func() *Function {
		b := NewBuilder("f", Void)
		b.NewBlock("entry")
		b.Ret(nil)
		b.NewBlock("entry")
		b.Ret(nil)
		return b.Fn
	}},
	{"empty block", "block dead is empty", func() *Function {
		b := NewBuilder("f", Void)
		b.NewBlock("entry")
		b.Ret(nil)
		b.NewBlock("dead")
		return b.Fn
	}},
	{"terminator before the end", "has terminator before its end", func() *Function {
		b := NewBuilder("f", Void)
		b.NewBlock("entry")
		b.Ret(nil)
		b.Ret(nil)
		return b.Fn
	}},
	{"no terminator", "does not end in a terminator", func() *Function {
		b := NewBuilder("f", Void, I32)
		b.NewBlock("entry")
		b.Bin(OpAdd, b.Param(0), b.Param(0))
		return b.Fn
	}},
	{"phi after another instruction", "phi %p not at block head", func() *Function {
		b := NewBuilder("f", Void, I32)
		self := b.NewBlock("self")
		b.phi(I32, Incoming{b.Param(0), self})
		b.Bin(OpAdd, b.Param(0), b.Param(0))
		b.phi(I32, Incoming{b.Param(0), self}).NameStr = "p"
		b.phi(I32, Incoming{b.Param(0), self})
		b.Br(self)
		return b.Fn
	}},
	{"unnamed result", "unnamed add result in block entry", func() *Function {
		b := NewBuilder("f", Void, I32)
		b.NewBlock("entry")
		b.Bin(OpAdd, b.Param(0), b.Param(0)).NameStr = ""
		b.Ret(nil)
		return b.Fn
	}},
	{"no blocks", "no blocks", func() *Function { return NewBuilder("f", Void).Fn }},
}

// diamond starts entry: br (p0 == 0), then, else; then, else and join
// are left open, join last in layout.
func diamond() (b *Builder, entry, then, els, join *Block) {
	b = NewBuilder("f", I32, I32)
	entry = b.NewBlock("entry")
	then = &Block{NameStr: "then", Parent: b.Fn}
	els = &Block{NameStr: "else", Parent: b.Fn}
	join = &Block{NameStr: "join", Parent: b.Fn}
	b.CondBr(b.ICmp(PredEQ, b.Param(0), NewConst(I32, 0)), then, els)
	b.Fn.Blocks = append(b.Fn.Blocks, then, els, join)
	return b, entry, then, els, join
}

// irreducible is entry: br c, left, right; left: br c, right, exit;
// right: br c, left, exit — a loop with two entries, so neither of its
// blocks dominates the other. With crossUse, right uses left's value.
func irreducible(crossUse bool) *Function {
	b := NewBuilder("f", I32, I32)
	b.NewBlock("entry")
	left := &Block{NameStr: "left", Parent: b.Fn}
	right := &Block{NameStr: "right", Parent: b.Fn}
	exit := &Block{NameStr: "exit", Parent: b.Fn}
	b.Fn.Blocks = append(b.Fn.Blocks, left, right, exit)
	c := b.ICmp(PredEQ, b.Param(0), NewConst(I32, 0))
	b.CondBr(c, left, right)
	b.SetBlock(left)
	x := b.Bin(OpAdd, b.Param(0), NewConst(I32, 1))
	b.CondBr(c, right, exit)
	b.SetBlock(right)
	if crossUse {
		b.Bin(OpMul, x, x)
	}
	b.CondBr(c, left, exit)
	b.SetBlock(exit)
	b.Ret(b.Param(0))
	return b.Fn
}

// TestVerifyMatchesReferenceOnIllFormed: the dense verifier gives the
// reference's answer, message included, on every function of the
// table, and the table's own expectation holds.
func TestVerifyMatchesReferenceOnIllFormed(t *testing.T) {
	for _, tc := range illFormed {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build()
			checkVerify(t, f)
			err := VerifyFunc(f)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error %v, want one containing %q", err, tc.want)
			}
			if len(f.Blocks) > 0 {
				checkCFG(t, f)
			}
		})
	}
}

// TestVerifyRejectsIllShaped: the shapes the map-based verifier let
// through or panicked on. None can be parsed from text, but mem2reg
// commits what VerifyFunc accepts and alive.Candidate admits a target
// on its word, so each must be a *verifyError.
func TestVerifyRejectsIllShaped(t *testing.T) {
	// fn is entry: %c = icmp eq p0, 0; br %c, a, b; a: %x = add p0, 1;
	// ret %x; b: ret p0; then broken by the case.
	fn := func(breakIt func(f *Function, entry, a, b *Block)) func() *Function {
		return func() *Function {
			bd := NewBuilder("f", I32, I32)
			entry := bd.NewBlock("entry")
			a := &Block{NameStr: "a", Parent: bd.Fn}
			b := &Block{NameStr: "b", Parent: bd.Fn}
			bd.Fn.Blocks = append(bd.Fn.Blocks, a, b)
			bd.CondBr(bd.ICmp(PredEQ, bd.Param(0), NewConst(I32, 0)), a, b)
			bd.SetBlock(a)
			bd.Ret(bd.Bin(OpAdd, bd.Param(0), NewConst(I32, 1)))
			bd.SetBlock(b)
			bd.Ret(bd.Param(0))
			breakIt(bd.Fn, entry, a, b)
			return bd.Fn
		}
	}
	stranger := func() *Block {
		bd := NewBuilder("g", I32, I32)
		blk := bd.NewBlock("elsewhere")
		bd.Ret(bd.Param(0))
		return blk
	}
	for _, tc := range []struct {
		name, want string
		build      func() *Function
	}{
		{"successor in another function", "branches to a block outside the function", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Succs[1] = stranger()
		})},
		{"successor removed from the function", "branches to a block outside the function", fn(func(f *Function, _, _, _ *Block) {
			f.Blocks = f.Blocks[:2]
		})},
		{"successor outside, from dead code", "block dead branches to a block outside the function", fn(func(f *Function, _, _, _ *Block) {
			f.Blocks = append(f.Blocks, &Block{NameStr: "dead", Parent: f})
			f.Blocks[3].appendInstr(&Instr{Op: OpBr, Ty: Void, Succs: []*Block{stranger()}})
		})},
		{"nil successor", "nil successor", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Succs[0] = nil
		})},
		{"conditional branch with one successor", "br in block entry has 1 successors, wants 2", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Succs = entry.Term().Succs[:1]
		})},
		{"conditional branch without its condition", "br in block entry has 0 operands, wants 1", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Args = nil
		})},
		{"branch with two successors", "br in block entry has 2 successors, wants 1", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Op, entry.Term().Args = OpBr, nil
		})},
		{"ret with a successor", "ret in block b has 1 successors, wants 0", fn(func(_ *Function, entry, _, b *Block) {
			b.Term().Succs = []*Block{entry}
		})},
		{"ret of two values", "ret in block b has 2 operands, wants 1", fn(func(_ *Function, _, _, b *Block) {
			b.Term().Args = append(b.Term().Args, b.Term().Args[0])
		})},
		{"binary op with one operand", "add in block a has 1 operands, wants 2", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Args = a.Instrs[0].Args[:1]
		})},
		{"icmp with one operand", "icmp in block entry has 1 operands, wants 2", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Instrs[0].Args = entry.Instrs[0].Args[:1]
		})},
		{"select with two operands", "select in block a has 2 operands, wants 3", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Op, a.Instrs[0].Args[0] = OpSelect, &Const{Ty: I1, Val: 1}
		})},
		{"cast without its operand", "zext in block a has 0 operands, wants 1", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Op, a.Instrs[0].Args = OpZExt, nil
		})},
		{"load without its address", "load in block a has 0 operands, wants 1", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Op, a.Instrs[0].Args = OpLoad, nil
		})},
		{"store with one operand", "store in block a has 1 operands, wants 2", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Op, a.Instrs[0].Args = OpStore, a.Instrs[0].Args[:1]
			a.Term().Args[0] = NewConst(I32, 0)
		})},
		{"switch without its value", "switch in block entry has 0 operands, wants 1", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Op, entry.Term().Args = OpSwitch, nil
		})},
		{"nil operand", "add in block a has a nil or untyped operand", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Args[1] = nil
		})},
		{"untyped operand", "ret in block b has a nil or untyped operand", fn(func(_ *Function, _, _, b *Block) {
			b.Term().Args[0] = &Undef{}
		})},
		{"nil switch case", "nil successor or case", fn(func(_ *Function, entry, _, _ *Block) {
			entry.Term().Op, entry.Term().Cases = OpSwitch, []*Const{nil}
			entry.Term().Args[0] = NewConst(I32, 0)
		})},
		{"invalid opcode", "invalid opcode 0 in block a", fn(func(_ *Function, _, a, _ *Block) {
			a.Instrs[0].Op, a.Instrs[0].Args = opInvalid, nil
			a.Term().Args[0] = NewConst(I32, 0)
		})},
		{"phi with a nil incoming block", "phi %p has a nil or untyped incoming", fn(func(f *Function, _, a, _ *Block) {
			a.Instrs = append([]*Instr{{Op: OpPhi, NameStr: "p", Ty: I32, Incs: []Incoming{{Val: f.Params[0]}}, Parent: a}}, a.Instrs...)
		})},
		{"phi with a nil incoming value", "phi %p has a nil or untyped incoming", fn(func(_ *Function, entry, a, _ *Block) {
			a.Instrs = append([]*Instr{{Op: OpPhi, NameStr: "p", Ty: I32, Incs: []Incoming{{Block: entry}}, Parent: a}}, a.Instrs...)
		})},
		{"dead phi from a block outside the function", "phi %p: incoming block elsewhere is outside the function", fn(func(f *Function, _, _, _ *Block) {
			dead := &Block{NameStr: "dead", Parent: f}
			f.Blocks = append(f.Blocks, dead)
			dead.appendInstr(&Instr{Op: OpPhi, NameStr: "p", Ty: I32, Incs: []Incoming{{Val: f.Params[0], Block: stranger()}}})
			dead.appendInstr(&Instr{Op: OpUnreachable, Ty: Void})
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The hole, as the reference still has it: accepted, or a panic.
			func() {
				defer func() { _ = recover() }()
				if err := refVerifyFunc(tc.build()); err != nil {
					t.Errorf("the reference rejects this one (%v): it belongs in the ill-formed table", err)
				}
			}()
			var verr *verifyError
			if err := VerifyFunc(tc.build()); !errors.As(err, &verr) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("VerifyFunc = %v, want a *VerifyError containing %q", err, tc.want)
			}
		})
	}
}

// TestVerifyForeignIncomingKeepsReferenceMessage: a live phi naming a
// block of another function was always rejected; the message stays.
func TestVerifyForeignIncomingKeepsReferenceMessage(t *testing.T) {
	b, _, then, els, join := diamond()
	b.SetBlock(then)
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	b.Ret(b.phi(I32, Incoming{NewConst(I32, 7), then}, Incoming{NewConst(I32, 8), &Block{NameStr: "elsewhere"}}))
	checkVerify(t, b.Fn)
	if err := VerifyFunc(b.Fn); err == nil || !strings.Contains(err.Error(), "elsewhere is not a predecessor of join") {
		t.Errorf("VerifyFunc = %v", err)
	}
}

// TestCFGDeepChainDoesNotRecurse: the depth-first search keeps its own
// stack, so a function as deep as a request body allows analyses in
// constant goroutine stack; and its predecessor lists keep one entry per
// edge.
func TestCFGDeepChainDoesNotRecurse(t *testing.T) {
	const n = 200_000
	b := NewBuilder("chain", Void)
	blocks := make([]*Block, n)
	for i := range blocks {
		blocks[i] = &Block{NameStr: fmt.Sprint("b", i), Parent: b.Fn}
	}
	b.Fn.Blocks = blocks
	for i, blk := range blocks[:n-1] {
		blk.appendInstr(&Instr{Op: OpBr, Ty: Void, Succs: []*Block{blocks[i+1]}})
	}
	blocks[n-1].appendInstr(&Instr{Op: OpRet, Ty: Void})
	c := NewCFG(b.Fn)
	if !c.Reachable(n-1) || !c.Dominates(0, n-1) || c.Dominates(n-1, 0) || !slices.Equal(c.Preds(n-1), []int32{n - 2}) {
		t.Error("wrong analysis of a straight chain")
	}
}

// TestCFGIndexTellsSameNamedBlocksApart: the analysis finds a block by
// its name and then by its pointer, so blocks that share a name — all
// of them past the table's array, to one probe chain — each answer
// their own position, and a stranger of the same name -1.
func TestCFGIndexTellsSameNamedBlocksApart(t *testing.T) {
	for _, n := range []int{3, 200} {
		b := NewBuilder("same", Void)
		blocks := make([]*Block, n)
		for i := range blocks {
			blocks[i] = &Block{NameStr: "x", Parent: b.Fn}
		}
		b.Fn.Blocks = blocks
		for i, blk := range blocks[:n-1] {
			blk.appendInstr(&Instr{Op: OpBr, Ty: Void, Succs: []*Block{blocks[i+1]}})
		}
		blocks[n-1].appendInstr(&Instr{Op: OpRet, Ty: Void})
		c := NewCFG(b.Fn)
		for i, blk := range blocks {
			if got := c.Index(blk); got != i {
				t.Fatalf("%d blocks: Index of block %d = %d", n, i, got)
			}
		}
		if c.Index(&Block{NameStr: "x"}) != -1 || c.foreign != nil {
			t.Errorf("%d blocks: a stranger named x is found, or a branch counted foreign", n)
		}
		if err := VerifyFunc(b.Fn); err == nil || err.Error() != "function @same: duplicate block x" {
			t.Errorf("%d blocks: VerifyFunc = %v", n, err)
		}
	}
}
