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
//
// This package is the one pass vocabulary. Its unit is instcombine's
// step: with act true, mutate f, report whether anything changed, leave
// f untouched on false; with act false, read f only and say the same.
// A rule is declared once, as a finder plus a rewrite of the place
// found, as one such step, or as a text damager; Applicable, Apply,
// Step and ApplyText read the declaration, and seqopt's passes are Step
// and instcombine's steps run to a fixpoint.
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

// Rule is one transformation in the action space, declared once by
// one of the constructors below: what it matches is stated in one
// place, its step, and Applicable, Apply and Step read it from there.
type Rule struct {
	Name string
	Kind Kind
	// step, the package's unit with the RNG added, is nil for a
	// corruption, damage for everything else.
	step   func(f *ir.Function, act bool, rng *rand.Rand) bool
	damage func(text string, rng *rand.Rand) string
}

// Applicable reports whether the rule can fire on f, which it only
// reads. Corruptions are always applicable (an LLM can emit garbage at
// any time).
func (r *Rule) Applicable(f *ir.Function) bool { return r.step == nil || r.step(f, false, nil) }

// Apply mutates f, returning false — and leaving f untouched — if
// nothing matched. A corruption matches no function.
func (r *Rule) Apply(f *ir.Function, rng *rand.Rand) bool {
	return r.step != nil && r.step(f, true, rng)
}

// Step is the rule in instcombine's shape, with no RNG: Apply with act
// true, the finder with act false. A corruption matches no function,
// so its Step always says no.
func (r *Rule) Step(f *ir.Function, act bool) bool { return r.step != nil && r.step(f, act, nil) }

// ApplyText damages printed IR (corrupt rules only) and terminates
// generation.
func (r *Rule) ApplyText(text string, rng *rand.Rand) string { return r.damage(text, rng) }

// matchRule declares an IR rule as one finder, which reads f and says
// where the rule fires, and one rewrite of f at the place found.
func matchRule[M any](name string, kind Kind, find func(*ir.Function) (M, bool), rewrite func(*ir.Function, M, *rand.Rand) bool) *Rule {
	return &Rule{Name: name, Kind: kind, step: func(f *ir.Function, act bool, rng *rand.Rand) bool {
		m, ok := find(f)
		return ok && (!act || rewrite(f, m, rng))
	}}
}

// peephole is matchRule for a rule that fires on the first
// instruction, in layout order, that satisfies pred.
func peephole(name string, kind Kind, pred func(*ir.Instr) bool, rewrite func(*ir.Function, *ir.Instr, *rand.Rand)) *Rule {
	return matchRule(name, kind,
		func(f *ir.Function) (*ir.Instr, bool) {
			var found *ir.Instr
			f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
				if found == nil && pred(in) {
					found = in
				}
			})
			return found, found != nil
		},
		func(f *ir.Function, in *ir.Instr, rng *rand.Rand) bool { rewrite(f, in, rng); return true })
}

// stepRule declares a sound rule as one of instcombine's steps, which
// find and rewrite in one walk and leave f untouched when they report
// false. With act false the step is its own finder, which fires exactly
// when acting would and reads f only: Applicable copies nothing.
func stepRule(name string, step func(f *ir.Function, act bool) bool) *Rule {
	return &Rule{Name: name, Kind: KindSound, step: func(f *ir.Function, act bool, _ *rand.Rand) bool { return step(f, act) }}
}

// corruption declares a text-level damage rule.
func corruption(name string, damage func(text string, rng *rand.Rand) string) *Rule {
	return &Rule{Name: name, Kind: KindCorrupt, damage: damage}
}

// Sound returns the sound instcombine-equivalent rules, plus a
// metric-neutral cosmetic reorder. The cosmetic rule models the base
// LLM's dominant "different correct" behaviour (Table I discussion:
// different output that improves nothing — only 1.2% of the base
// model's outputs actually got faster).
func Sound() []*Rule {
	return []*Rule{
		matchRule("cosmetic-reorder", KindSound, swappablePairs,
			func(_ *ir.Function, pairs []swapPair, rng *rand.Rand) bool {
				pick := 0
				if rng != nil {
					pick = rng.Intn(len(pairs))
				}
				p := pairs[pick]
				b := p.block
				b.Instrs[p.idx], b.Instrs[p.idx+1] = b.Instrs[p.idx+1], b.Instrs[p.idx]
				return true
			}),
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
func swappablePairs(f *ir.Function) ([]swapPair, bool) {
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
	return out, len(out) > 0
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
		// sdiv X, 2^k -> lshr X, k: wrong for negative X.
		peephole("unsound-sdiv-as-lshr", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpSDiv && pow2Const(in.Args[1]) },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) {
				c := in.Args[1].(*ir.Const)
				in.Op = ir.OpLShr
				in.Args[1] = ir.NewConst(c.Ty, log2(c.Val&c.Ty.Mask()))
				in.Flags = ir.Flags{}
			}),
		// srem X, 2^k -> and X, 2^k-1: wrong for negative X.
		peephole("unsound-srem-as-and", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpSRem && pow2Const(in.Args[1]) },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) {
				c := in.Args[1].(*ir.Const)
				in.Op = ir.OpAnd
				in.Args[1] = &ir.Const{Ty: c.Ty, Val: (c.Val - 1) & c.Ty.Mask()}
				in.Flags = ir.Flags{}
			}),
		// ashr -> lshr: sign confusion; accidentally sound when the
		// operand is known non-negative.
		peephole("unsound-ashr-as-lshr", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpAShr },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) { in.Op = ir.OpLShr }),
		// Adding nsw/nuw the source didn't have makes the target more
		// poisonous.
		peephole("unsound-add-flags", KindUnsound,
			func(in *ir.Instr) bool {
				return (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpMul) && !in.Flags.NSW
			},
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) {
				in.Flags.NSW = true
				in.Flags.NUW = true
			}),
		// icmp slt X, (add X, C) with C>0 -> true: ignores overflow.
		peephole("unsound-overflow-cmp", KindUnsound,
			func(in *ir.Instr) bool {
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
			},
			func(f *ir.Function, in *ir.Instr, _ *rand.Rand) {
				ir.ReplaceAllUses(f, in, ir.NewConst(ir.I1, 1))
				ir.DeadCodeElim(f)
			}),
		// sub X, Y "commutes" — flat wrong.
		peephole("unsound-sub-commute", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpSub && in.Args[0] != in.Args[1] },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) {
				in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
			}),
		// zext <-> sext swap: wrong when the sign bit can be set.
		peephole("unsound-ext-swap", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpZExt || in.Op == ir.OpSExt },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) {
				if in.Op == ir.OpZExt {
					in.Op = ir.OpSExt
				} else {
					in.Op = ir.OpZExt
				}
			}),
		// Remove a store whose value is still observed.
		peephole("unsound-drop-store", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpStore },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) { ir.RemoveInstr(in) }),
		// Remove an external call (side effects vanish).
		peephole("unsound-drop-call", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpCall },
			func(f *ir.Function, in *ir.Instr, _ *rand.Rand) {
				if in.HasResult() {
					w := in.Ty.(ir.IntType)
					ir.ReplaceAllUses(f, in, ir.NewConst(w, 0))
				}
				ir.RemoveInstr(in)
			}),
		// Perturb a constant by one (botched mental arithmetic, paper
		// Fig. 12's failure family).
		peephole("unsound-off-by-one", KindUnsound,
			func(in *ir.Instr) bool {
				if !in.Op.IsBinary() {
					return false
				}
				_, ok := in.Args[1].(*ir.Const)
				return ok
			},
			func(_ *ir.Function, in *ir.Instr, rng *rand.Rand) {
				c := in.Args[1].(*ir.Const)
				delta := int64(1)
				if rng != nil && rng.Intn(2) == 0 {
					delta = -1
				}
				in.Args[1] = ir.NewConst(c.Ty, c.Signed()+delta)
			}),
		// Swap select arms.
		peephole("unsound-select-swap", KindUnsound,
			func(in *ir.Instr) bool { return in.Op == ir.OpSelect && in.Args[1] != in.Args[2] },
			func(_ *ir.Function, in *ir.Instr, _ *rand.Rand) {
				in.Args[1], in.Args[2] = in.Args[2], in.Args[1]
			}),
	}
}

// Corruptions returns the text-level damage rules.
func Corruptions() []*Rule {
	return []*Rule{
		corruption("corrupt-undefined-ref", func(text string, rng *rand.Rand) string {
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
		}),
		corruption("corrupt-bad-mnemonic", func(text string, rng *rand.Rand) string {
			for _, op := range []string{" add ", " mul ", " sub ", " load ", " icmp ", " and ", " xor "} {
				if strings.Contains(text, op) {
					return strings.Replace(text, op, " f"+strings.TrimSpace(op)+"q ", 1)
				}
			}
			return strings.Replace(text, "ret ", "retq ", 1)
		}),
		corruption("corrupt-truncate", func(text string, rng *rand.Rand) string {
			lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
			if len(lines) <= 2 {
				return "define"
			}
			keep := len(lines)/2 + 1
			return strings.Join(lines[:keep], "\n") + "\n"
		}),
		corruption("corrupt-type-mismatch", func(text string, rng *rand.Rand) string {
			// Change one operand's type annotation, leaving the
			// instruction type intact -> type check fails.
			if i := strings.Index(text, "= add i32"); i >= 0 {
				return text[:i] + "= add i33" + text[i+len("= add i32"):]
			}
			if i := strings.Index(text, "i32"); i >= 0 {
				return text[:i] + "i31" + text[i+3:]
			}
			return strings.Replace(text, "i64", "i63", 1)
		}),
		corruption("corrupt-duplicate-def", func(text string, rng *rand.Rand) string {
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
		}),
		corruption("corrupt-stray-tokens", func(text string, rng *rand.Rand) string {
			return strings.Replace(text, "{\n", "{\n  Sure! Here is the optimized IR:\n", 1)
		}),
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
