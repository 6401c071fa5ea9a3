package ir

import "slices"

// CFG is a read-only analysis of a function's control-flow graph:
// predecessor lists, reachability from entry and immediate dominators.
// A block is its position in f.Blocks, found from the *Block through a
// table inside the analysis, and every per-block answer lives in int32
// slices carved from one allocation. The analysis writes nothing into
// the function — no index or mark on Block or Instr — so any number of
// goroutines may analyse one function at once. It is a snapshot: blocks
// or terminators changed afterwards are not seen.
type CFG struct {
	blocks []*Block
	// Nothing below is built for a function whose only block has no
	// successor (the scalar majority of what is parsed): it has no edge
	// to record, and every accessor answers for it from nil slices. One
	// block that branches to itself is not that case.
	index   table   // positions of blocks, by name
	predOff []int32 // preds[predOff[i]:predOff[i+1]] are the predecessors of block i
	preds   []int32
	order   []int32 // reverse post-order number; -1 when unreachable
	idom    []int32 // immediate dominator; the entry's is itself; -1 when unreachable
	// foreign is the first block whose terminator names a block that is
	// not in the function; such an edge is left out of the graph.
	foreign *Block
}

// NewCFG analyses f.
func NewCFG(f *Function) CFG {
	c := CFG{blocks: f.Blocks}
	n, edges := len(f.Blocks), 0
	for _, b := range f.Blocks {
		edges += len(b.Succs())
	}
	if n <= 1 && edges == 0 {
		return c
	}
	c.index.reset(n)
	for i, b := range f.Blocks {
		// A block listed twice is found at its last position.
		_, slot := c.find(b)
		c.index.put(slot, int32(i))
	}
	slab := make([]int32, 2*(n+1)+2*edges+5*n)
	succOff, succs := carve(&slab, n+1), carve(&slab, edges)
	c.predOff, c.preds = carve(&slab, n+1), carve(&slab, edges)
	c.order, c.idom = carve(&slab, n), carve(&slab, n)
	rpo, stack, next := carve(&slab, n), carve(&slab, n), carve(&slab, n)

	// Successors by index, and the number of edges into each block.
	e := 0
	for i, b := range f.Blocks {
		succOff[i] = int32(e)
		for _, s := range b.Succs() {
			si := int32(c.Index(s))
			if si < 0 {
				if c.foreign == nil {
					c.foreign = b
				}
			} else {
				c.predOff[si+1]++
			}
			succs[e] = si
			e++
		}
	}
	succOff[n] = int32(e)
	// Predecessors grouped by target, in layout order of their sources
	// and one per edge: a conditional branch with both arms on one
	// block is its predecessor twice, as a phi there counts it.
	for i := 0; i < n; i++ {
		c.predOff[i+1] += c.predOff[i]
	}
	copy(next, c.predOff)
	for i := range f.Blocks {
		for _, si := range succs[succOff[i]:succOff[i+1]] {
			if si >= 0 {
				c.preds[next[si]] = int32(i)
				next[si]++
			}
		}
	}
	c.preds = c.preds[:c.predOff[n]]

	// Depth-first search from entry on an explicit stack; order holds
	// -1 for a block not yet seen, then its reverse post-order number.
	const seen = -2
	for i := range c.order {
		c.order[i], c.idom[i] = -1, -1
	}
	copy(next, succOff)
	stack[0], c.order[0] = 0, seen
	sp, post := 1, 0
	for sp > 0 {
		v := stack[sp-1]
		if next[v] < succOff[v+1] {
			s := succs[next[v]]
			next[v]++
			if s >= 0 && c.order[s] == -1 {
				c.order[s] = seen
				stack[sp] = s
				sp++
			}
			continue
		}
		sp--
		post++
		rpo[n-post] = v
	}
	rpo = rpo[n-post:]
	for i, v := range rpo {
		c.order[v] = int32(i)
	}

	// Immediate dominators: Cooper, Harvey and Kennedy's iteration over
	// reverse post-order.
	intersect := func(a, b int32) int32 {
		for a != b {
			for c.order[a] > c.order[b] {
				a = c.idom[a]
			}
			for c.order[b] > c.order[a] {
				b = c.idom[b]
			}
		}
		return a
	}
	c.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			idom := int32(-1)
			for _, p := range c.Preds(int(b)) {
				switch {
				case c.idom[p] < 0: // not yet processed, or unreachable
				case idom < 0:
					idom = p
				default:
					idom = intersect(idom, p)
				}
			}
			if idom >= 0 && c.idom[b] != idom {
				c.idom[b] = idom
				changed = true
			}
		}
	}
	return c
}

// Index returns b's position in the function's block list, or -1 when
// b is not one of its blocks.
func (c *CFG) Index(b *Block) int {
	if c.index.size == 0 {
		return slices.Index(c.blocks, b) // of at most one block
	}
	if b == nil {
		return -1
	}
	pos, _ := c.find(b)
	return int(pos)
}

// find looks b up by its name, and tells it from another block of the
// same name by its pointer.
func (c *CFG) find(b *Block) (int32, int) {
	return c.index.find(b.NameStr, func(pos int32) bool { return c.blocks[pos] == b })
}

// Preds returns the predecessors of block i, one entry per edge, in
// layout order of the branching blocks. The slice is the analysis's
// own: read it, do not keep or change it.
func (c *CFG) Preds(i int) []int32 {
	if i < 0 || c.predOff == nil {
		return nil
	}
	return c.preds[c.predOff[i]:c.predOff[i+1]]
}

// Reachable reports whether block i can be reached from entry.
func (c *CFG) Reachable(i int) bool {
	return i >= 0 && (c.order == nil || c.order[i] >= 0)
}

// Dominates reports whether block a dominates block b: every path from
// entry to b passes through a. A block dominates itself; an
// unreachable block dominates and is dominated by no other.
func (c *CFG) Dominates(a, b int) bool {
	if a == b || !c.Reachable(a) || !c.Reachable(b) {
		return a == b && a >= 0
	}
	for c.order[b] > c.order[a] {
		b = int(c.idom[b])
	}
	return a == b
}
