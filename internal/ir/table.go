package ir

import "hash/maphash"

// table finds a position — of a parameter, an instruction or a block of
// one function — by the name at that position. It holds nothing but the
// positions: open-addressed, a power of two in size, probed linearly
// from the name's hash, at most three quarters full, and sized once, by
// reset, for every name it will hold. Up to 96 names its slots are the
// array inside it, so a table on its owner's stack allocates nothing.
// The hash is maphash under a seed of the table's own, so text from a
// client cannot choose which of its names collide.
type table struct {
	seed  maphash.Seed
	size  int     // slots in use, a power of two; 0 before reset
	big   []int32 // the slots when they outgrow small
	small [128]int32
}

// reset empties t and sizes it for n names.
func (t *table) reset(n int) {
	t.size = 1
	for 3*t.size < 4*n {
		t.size *= 2
	}
	t.seed = maphash.MakeSeed()
	if t.size <= len(t.small) {
		t.big = nil
		clear(t.small[:t.size])
		return
	}
	t.big = make([]int32, t.size)
}

// slots holds position+1 per slot, 0 where a slot is empty.
func (t *table) slots() []int32 {
	if t.big != nil {
		return t.big
	}
	return t.small[:t.size]
}

// find probes from name's hash for the first position is accepts, and
// returns it with its slot; or -1 with the empty slot that ends the
// probe, where put records a new position under name.
func (t *table) find(name string, is func(pos int32) bool) (int32, int) {
	s := t.slots()
	mask := len(s) - 1
	for i := int(maphash.String(t.seed, name)) & mask; ; i = (i + 1) & mask {
		if s[i] == 0 {
			return -1, i
		}
		if pos := s[i] - 1; is(pos) {
			return pos, i
		}
	}
}

// put records pos at slot i, which find returned.
func (t *table) put(i int, pos int32) { t.slots()[i] = pos + 1 }
