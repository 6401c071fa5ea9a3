package ir_test

import (
	"strings"
	"testing"

	"veriopt/internal/ir"
)

// FuzzCopierSequence runs a fuzzed sequence of Clones, Parses, failed
// Parses and Releases on one Copier, two bytes an operation: the kind,
// and which function of the pool — the seed-7 corpus, one text per
// template with its reference and mem2reg texts, and SampleFn — it
// clones or parses; a failed parse is that text with its first ret
// misspelt, which fails at the last instruction, after the parser has
// carved the function. After every operation:
//
//   - every function built and not released prints and keys as it did
//     when it was built, and shares no function, first block or first
//     instruction with the one built last;
//   - a build after a Release takes the released function's Function,
//     and its first block and first instruction when it has no more
//     blocks and instructions;
//   - every window of every function built, its parameters, blocks,
//     each block's instructions and each instruction's lists, has a
//     capacity equal to its length;
//   - a failed parse hands nothing out and frees nothing: what was
//     released before it is taken by the next build, and what was not
//     stays unwritten.
func FuzzCopierSequence(f *testing.F) {
	texts := append(corpusTexts(f, 7, 1), ir.SampleFn)
	fns := make([]*ir.Function, len(texts))
	for i, text := range texts {
		fns[i] = parse(f, text)
	}
	f.Add([]byte{0, 0, 0, 1, 3, 0, 1, 2, 2, 0, 1, 2, 3, 0, 0, 5})
	f.Add([]byte{1, 4, 3, 0, 2, 4, 0, 4, 3, 0, 3, 0, 1, 9, 0, 2})
	f.Add([]byte{0, 7, 0, 8, 0, 9, 3, 0, 0, 6, 3, 0, 1, 7, 2, 7, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		// built is a function as it was built: its text, its key, its
		// first block and instruction, and how many it had.
		type built struct {
			fn             *ir.Function
			text, key      string
			block          *ir.Block
			instr          *ir.Instr
			blocks, instrs int
		}
		var (
			c        ir.Copier
			live     []built // built and not released, oldest first
			released *built  // the last function built, when released
			last     bool    // whether live's last is the last function built
		)
		for i := 0; i+1 < len(ops); i += 2 {
			k := int(ops[i+1]) % len(texts)
			var g *ir.Function
			switch ops[i] % 4 {
			case 0:
				g = c.Clone(fns[k])
			case 1:
				var err error
				if g, err = c.Parse(texts[k]); err != nil {
					t.Fatalf("op %d: parse of text %d: %v", i/2, k, err)
				}
			case 2:
				broken := strings.Replace(texts[k], "ret ", "rte ", 1)
				if h, err := c.Parse(broken); h != nil || err == nil {
					t.Fatalf("op %d: text %d with its ret misspelt parsed to %v, %v", i/2, k, h, err)
				}
			case 3:
				c.Release()
				if last {
					b := live[len(live)-1]
					live, released, last = live[:len(live)-1], &b, false
				}
			}
			if g != nil {
				checkWindows(t, g)
				if r := released; r != nil {
					if g != r.fn {
						t.Fatalf("op %d: a build after a Release did not take the released function", i/2)
					}
					if len(g.Blocks) <= r.blocks && g.Blocks[0] != r.block {
						t.Fatalf("op %d: a build of %d blocks after a Release of %d did not take its first block", i/2, len(g.Blocks), r.blocks)
					}
					if n := countInstrs(g); n <= r.instrs && firstInstr(g) != r.instr {
						t.Fatalf("op %d: a build of %d instructions after a Release of %d did not take its first instruction", i/2, n, r.instrs)
					}
				}
				for _, b := range live {
					if b.fn == g || b.block == g.Blocks[0] || b.instr == firstInstr(g) {
						t.Fatalf("op %d: a build took the memory of a function nobody released", i/2)
					}
				}
				live = append(live, built{fn: g, text: ir.FuncString(g), key: ir.CanonicalKey(g),
					block: g.Blocks[0], instr: firstInstr(g), blocks: len(g.Blocks), instrs: countInstrs(g)})
				released, last = nil, true
			}
			for _, b := range live {
				if got := ir.FuncString(b.fn); got != b.text {
					t.Fatalf("op %d: an unreleased function changed:\n%s\nwas:\n%s", i/2, got, b.text)
				}
				if got := ir.CanonicalKey(b.fn); got != b.key {
					t.Fatalf("op %d: an unreleased function keys as\n%q\nwas\n%q", i/2, got, b.key)
				}
			}
		}
	})
}

// checkWindows fails unless every list of f has a capacity equal to its
// length, so that an append to one cannot write into its neighbour.
func checkWindows(t *testing.T, f *ir.Function) {
	t.Helper()
	exact := func(what string, n, c int) {
		if n != c {
			t.Fatalf("@%s: %s has length %d, capacity %d", f.NameStr, what, n, c)
		}
	}
	exact("the parameter list", len(f.Params), cap(f.Params))
	exact("the block list", len(f.Blocks), cap(f.Blocks))
	for _, b := range f.Blocks {
		exact("an instruction list", len(b.Instrs), cap(b.Instrs))
		for _, in := range b.Instrs {
			exact("an operand list", len(in.Args), cap(in.Args))
			exact("a successor list", len(in.Succs), cap(in.Succs))
			exact("a phi's incomings", len(in.Incs), cap(in.Incs))
			exact("a switch's cases", len(in.Cases), cap(in.Cases))
		}
	}
}

func countInstrs(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// firstInstr is f's first instruction in layout order.
func firstInstr(f *ir.Function) *ir.Instr {
	for _, b := range f.Blocks {
		if len(b.Instrs) > 0 {
			return b.Instrs[0]
		}
	}
	return nil
}
