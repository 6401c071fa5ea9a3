// Package rewrite defines the action space of the simulated LLM
// policy (internal/policy): a library of IR transformations spanning
// four kinds.
//
//   - Sound: instcombine-style steps (via instcombine.StepFirst) plus
//     memory cleanups — applying all of them reproduces the reference
//     pass's output.
//   - Extra: sound transformations *beyond* instcombine (constant
//     branch folding, block merging, diamond-to-select, alloca
//     promotion) — the source of the paper's emergent optimizations
//     (Fig. 6/10): verifiably correct outputs that beat the
//     hand-written pass.
//   - Unsound: plausible-but-wrong rewrites modeled on real LLM
//     hallucinations (overflow-ignoring folds, sign confusion,
//     dropped side effects). The Alive2-style checker rejects them;
//     occasionally one is accidentally sound for the specific code,
//     exactly as with a real LLM.
//   - Corrupt: text-level damage producing genuine syntax errors
//     (undefined references, bad mnemonics, truncation).
//
// Rules are deterministic given the same function and RNG so that
// greedy decoding is reproducible (paper §IV-B).
package rewrite

import (
	"math/rand"
	"strings"

	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
)

// Kind classifies a rule.
type Kind int

// Rule kinds.
const (
	KindSound Kind = iota
	KindExtra
	KindUnsound
	KindCorrupt
)

var kindNames = [...]string{"sound", "extra", "unsound", "corrupt"}

// String returns the kind name.
func (k Kind) String() string { return kindNames[k] }

// Rule is one transformation in the action space. IR-level rules
// implement Apply; corruption rules implement ApplyText instead and
// terminate generation.
type Rule struct {
	Name string
	Kind Kind
	// Applicable reports whether the rule can fire on f. Corruptions
	// are always applicable (an LLM can emit garbage at any time).
	Applicable func(f *ir.Function) bool
	// Apply mutates f, returning false if nothing matched.
	Apply func(f *ir.Function, rng *rand.Rand) bool
	// ApplyText damages printed IR (corrupt rules only).
	ApplyText func(text string, rng *rand.Rand) string
}

func always(*ir.Function) bool { return true }

// stepRule wraps one of instcombine's mutating steps as a sound rule,
// applicable when the step would change a copy of the function.
func stepRule(name string, step func(*ir.Function) bool) *Rule {
	return &Rule{Name: name, Kind: KindSound,
		Applicable: func(f *ir.Function) bool { return step(ir.CloneFunc(f)) },
		Apply:      func(f *ir.Function, _ *rand.Rand) bool { return step(f) }}
}

// Sound returns the sound instcombine-equivalent rules, plus a
// metric-neutral cosmetic reorder. The cosmetic rule models the base
// LLM's dominant "different correct" behaviour (Table I discussion:
// different output that improves nothing — only 1.2% of the base
// model's outputs actually got faster).
func Sound() []*Rule {
	return []*Rule{
		{
			Name: "cosmetic-reorder",
			Kind: KindSound,
			Applicable: func(f *ir.Function) bool {
				return len(swappablePairs(f)) > 0
			},
			Apply: func(f *ir.Function, rng *rand.Rand) bool {
				pairs := swappablePairs(f)
				if len(pairs) == 0 {
					return false
				}
				pick := 0
				if rng != nil {
					pick = rng.Intn(len(pairs))
				}
				p := pairs[pick]
				b := p.block
				b.Instrs[p.idx], b.Instrs[p.idx+1] = b.Instrs[p.idx+1], b.Instrs[p.idx]
				return true
			},
		},
		stepRule("combine-step", instcombine.StepFirst),
		stepRule("forward-loads", instcombine.ForwardLoadsStep),
		stepRule("remove-dead-allocas", instcombine.RemoveDeadAllocasStep),
	}
}

// swapPair is a pair of adjacent, independent, pure instructions that
// may be exchanged without observable effect.
type swapPair struct {
	block *ir.Block
	idx   int
}

// swappablePairs lists adjacent instruction pairs that are safe to
// swap: both pure (no memory, calls, phis, terminators, or trapping
// division) and with no def-use edge between them.
func swappablePairs(f *ir.Function) []swapPair {
	pure := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpAlloca, ir.OpPhi:
			return false
		}
		if in.Op.IsTerminator() || in.Op.IsDivRem() {
			return false
		}
		return true
	}
	var out []swapPair
	for _, b := range f.Blocks {
		for i := 0; i+1 < len(b.Instrs); i++ {
			a, c := b.Instrs[i], b.Instrs[i+1]
			if !pure(a) || !pure(c) {
				continue
			}
			uses := false
			for _, arg := range c.Args {
				if arg == ir.Value(a) {
					uses = true
					break
				}
			}
			if !uses {
				out = append(out, swapPair{block: b, idx: i})
			}
		}
	}
	return out
}

// firstInstr finds the first instruction satisfying pred, in layout
// order.
func firstInstr(f *ir.Function, pred func(*ir.Instr) bool) *ir.Instr {
	var found *ir.Instr
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		if found == nil && pred(in) {
			found = in
		}
	})
	return found
}

func hasInstr(f *ir.Function, pred func(*ir.Instr) bool) bool {
	return firstInstr(f, pred) != nil
}

func pow2Const(v ir.Value) bool {
	c, ok := v.(*ir.Const)
	if !ok {
		return false
	}
	u := c.Val & c.Ty.Mask()
	return u != 0 && u&(u-1) == 0
}

func log2(u uint64) int64 {
	n := int64(0)
	for u > 1 {
		u >>= 1
		n++
	}
	return n
}

// Unsound returns the hallucination rules.
func Unsound() []*Rule {
	return []*Rule{
		{
			// sdiv X, 2^k -> lshr X, k: wrong for negative X.
			Name: "unsound-sdiv-as-lshr",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSDiv && pow2Const(in.Args[1])
				})
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSDiv && pow2Const(in.Args[1])
				})
				if in == nil {
					return false
				}
				c := in.Args[1].(*ir.Const)
				in.Op = ir.OpLShr
				in.Args[1] = ir.NewConst(c.Ty, log2(c.Val&c.Ty.Mask()))
				in.Flags = ir.Flags{}
				return true
			},
		},
		{
			// srem X, 2^k -> and X, 2^k-1: wrong for negative X.
			Name: "unsound-srem-as-and",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSRem && pow2Const(in.Args[1])
				})
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSRem && pow2Const(in.Args[1])
				})
				if in == nil {
					return false
				}
				c := in.Args[1].(*ir.Const)
				in.Op = ir.OpAnd
				in.Args[1] = &ir.Const{Ty: c.Ty, Val: (c.Val - 1) & c.Ty.Mask()}
				in.Flags = ir.Flags{}
				return true
			},
		},
		{
			// ashr -> lshr: sign confusion; accidentally sound when the
			// operand is known non-negative.
			Name: "unsound-ashr-as-lshr",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpAShr })
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpAShr })
				if in == nil {
					return false
				}
				in.Op = ir.OpLShr
				return true
			},
		},
		{
			// Adding nsw/nuw the source didn't have makes the target
			// more poisonous.
			Name: "unsound-add-flags",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					return (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpMul) && !in.Flags.NSW
				})
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					return (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpMul) && !in.Flags.NSW
				})
				if in == nil {
					return false
				}
				in.Flags.NSW = true
				in.Flags.NUW = true
				return true
			},
		},
		{
			// icmp slt X, (add X, C) with C>0 -> true: ignores overflow.
			Name: "unsound-overflow-cmp",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return findOverflowCmp(f) != nil
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := findOverflowCmp(f)
				if in == nil {
					return false
				}
				ir.ReplaceAllUses(f, in, ir.NewConst(ir.I1, 1))
				ir.DeadCodeElim(f, nil)
				return true
			},
		},
		{
			// sub X, Y "commutes" — flat wrong.
			Name: "unsound-sub-commute",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSub && in.Args[0] != in.Args[1]
				})
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSub && in.Args[0] != in.Args[1]
				})
				if in == nil {
					return false
				}
				in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				return true
			},
		},
		{
			// zext <-> sext swap: wrong when the sign bit can be set.
			Name: "unsound-ext-swap",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpZExt || in.Op == ir.OpSExt
				})
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpZExt || in.Op == ir.OpSExt
				})
				if in == nil {
					return false
				}
				if in.Op == ir.OpZExt {
					in.Op = ir.OpSExt
				} else {
					in.Op = ir.OpZExt
				}
				return true
			},
		},
		{
			// Remove a store whose value is still observed.
			Name: "unsound-drop-store",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpStore })
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpStore })
				if in == nil {
					return false
				}
				ir.RemoveInstr(in)
				return true
			},
		},
		{
			// Remove an external call (side effects vanish).
			Name: "unsound-drop-call",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpCall })
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpCall })
				if in == nil {
					return false
				}
				if in.HasResult() {
					w := in.Ty.(ir.IntType)
					ir.ReplaceAllUses(f, in, ir.NewConst(w, 0))
				}
				ir.RemoveInstr(in)
				return true
			},
		},
		{
			// Perturb a constant by one (botched mental arithmetic,
			// paper Fig. 12's failure family).
			Name: "unsound-off-by-one",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					if !in.Op.IsBinary() {
						return false
					}
					_, ok := in.Args[1].(*ir.Const)
					return ok
				})
			},
			Apply: func(f *ir.Function, rng *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					if !in.Op.IsBinary() {
						return false
					}
					_, ok := in.Args[1].(*ir.Const)
					return ok
				})
				if in == nil {
					return false
				}
				c := in.Args[1].(*ir.Const)
				delta := int64(1)
				if rng != nil && rng.Intn(2) == 0 {
					delta = -1
				}
				in.Args[1] = ir.NewConst(c.Ty, c.Signed()+delta)
				return true
			},
		},
		{
			// Swap select arms.
			Name: "unsound-select-swap",
			Kind: KindUnsound,
			Applicable: func(f *ir.Function) bool {
				return hasInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSelect && in.Args[1] != in.Args[2]
				})
			},
			Apply: func(f *ir.Function, _ *rand.Rand) bool {
				in := firstInstr(f, func(in *ir.Instr) bool {
					return in.Op == ir.OpSelect && in.Args[1] != in.Args[2]
				})
				if in == nil {
					return false
				}
				in.Args[1], in.Args[2] = in.Args[2], in.Args[1]
				return true
			},
		},
	}
}

func findOverflowCmp(f *ir.Function) *ir.Instr {
	return firstInstr(f, func(in *ir.Instr) bool {
		if in.Op != ir.OpICmp || (in.Pred != ir.PredSLT && in.Pred != ir.PredSGT) {
			return false
		}
		x, y := in.Args[0], in.Args[1]
		if in.Pred == ir.PredSGT {
			x, y = y, x // normalize to slt x, y
		}
		add, ok := y.(*ir.Instr)
		if !ok || add.Op != ir.OpAdd || add.Args[0] != x {
			return false
		}
		c, ok := add.Args[1].(*ir.Const)
		return ok && c.Signed() > 0
	})
}

// Corruptions returns the text-level damage rules.
func Corruptions() []*Rule {
	return []*Rule{
		{
			Name: "corrupt-undefined-ref", Kind: KindCorrupt, Applicable: always,
			ApplyText: func(text string, rng *rand.Rand) string {
				// Rename the first operand occurrence of a %N ref on a
				// non-defining position to an undefined name.
				lines := strings.Split(text, "\n")
				for i, l := range lines {
					if idx := strings.LastIndex(l, "%"); idx > 0 && strings.Contains(l, "= ") && idx > strings.Index(l, "=") {
						lines[i] = l[:idx] + "%undefined_val" + trailingPunct(l[idx:])
						return strings.Join(lines, "\n")
					}
				}
				return text + "\n%broken"
			},
		},
		{
			Name: "corrupt-bad-mnemonic", Kind: KindCorrupt, Applicable: always,
			ApplyText: func(text string, rng *rand.Rand) string {
				for _, op := range []string{" add ", " mul ", " sub ", " load ", " icmp ", " and ", " xor "} {
					if strings.Contains(text, op) {
						return strings.Replace(text, op, " f"+strings.TrimSpace(op)+"q ", 1)
					}
				}
				return strings.Replace(text, "ret ", "retq ", 1)
			},
		},
		{
			Name: "corrupt-truncate", Kind: KindCorrupt, Applicable: always,
			ApplyText: func(text string, rng *rand.Rand) string {
				lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
				if len(lines) <= 2 {
					return "define"
				}
				keep := len(lines)/2 + 1
				return strings.Join(lines[:keep], "\n") + "\n"
			},
		},
		{
			Name: "corrupt-type-mismatch", Kind: KindCorrupt, Applicable: always,
			ApplyText: func(text string, rng *rand.Rand) string {
				// Change one operand's type annotation, leaving the
				// instruction type intact -> type check fails.
				if i := strings.Index(text, "= add i32"); i >= 0 {
					return text[:i] + "= add i33" + text[i+len("= add i32"):]
				}
				if i := strings.Index(text, "i32"); i >= 0 {
					return text[:i] + "i31" + text[i+3:]
				}
				return strings.Replace(text, "i64", "i63", 1)
			},
		},
		{
			Name: "corrupt-duplicate-def", Kind: KindCorrupt, Applicable: always,
			ApplyText: func(text string, rng *rand.Rand) string {
				lines := strings.Split(text, "\n")
				for i, l := range lines {
					if strings.Contains(l, " = ") {
						// Duplicate a defining line: redefinition error.
						out := append([]string{}, lines[:i+1]...)
						out = append(out, l)
						out = append(out, lines[i+1:]...)
						return strings.Join(out, "\n")
					}
				}
				return text
			},
		},
		{
			Name: "corrupt-stray-tokens", Kind: KindCorrupt, Applicable: always,
			ApplyText: func(text string, rng *rand.Rand) string {
				return strings.Replace(text, "{\n", "{\n  Sure! Here is the optimized IR:\n", 1)
			},
		},
	}
}

func trailingPunct(s string) string {
	out := ""
	for _, r := range s {
		if r == ',' || r == ')' || r == ']' {
			out += string(r)
		}
	}
	return out
}

// All returns every rule in a stable order: sound, extra, unsound,
// corrupt. Feature indices in the policy depend on this ordering.
func All() []*Rule {
	var out []*Rule
	out = append(out, Sound()...)
	out = append(out, Extra()...)
	out = append(out, Unsound()...)
	out = append(out, Corruptions()...)
	return out
}
