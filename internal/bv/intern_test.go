package bv

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refInterner is the interner Builder had before termKey: a table
// keyed by the rendered string op|width|val|name|kid ids, ids in order
// of first sight. It is the reference the open-addressed table is
// fuzzed against.
type refInterner struct{ ids map[string]int }

func refKey(op Op, w int, val uint64, name string, kids []*Term) string {
	var key strings.Builder
	fmt.Fprintf(&key, "%d|%d|%d|%s", op, w, val, name)
	for _, k := range kids {
		fmt.Fprintf(&key, "|%d", k.id)
	}
	return key.String()
}

// intern returns the id the old table gives the key and whether the
// key was new to it.
func (r *refInterner) intern(key string) (id int, fresh bool) {
	if id, ok := r.ids[key]; ok {
		return id, false
	}
	id = len(r.ids)
	r.ids[key] = id
	return id, true
}

// sync feeds the reference every term b's table holds that b created
// since the last call, in id order: each must be new to the reference
// too (two pointers for one old key would be a class the table split)
// and get the same id.
func (r *refInterner) sync(t testing.TB, b *Builder) {
	t.Helper()
	var created []*Term
	for _, tm := range b.table {
		if tm != nil && tm.id >= len(r.ids) {
			created = append(created, tm)
		}
	}
	sort.Slice(created, func(i, j int) bool { return created[i].id < created[j].id })
	for _, tm := range created {
		id, fresh := r.intern(refKey(tm.Op, tm.Width, tm.Val, tm.name, tm.Kids))
		if !fresh || id != tm.id {
			t.Fatalf("builder made term %d (%v) new; the reference has it as id %d, new %v", tm.id, tm, id, fresh)
		}
	}
	if b.numTerms() != len(r.ids) {
		t.Fatalf("NumTerms = %d, reference has %d", b.numTerms(), len(r.ids))
	}
}

// internVsReference spends rng on a sequence of constructor calls and
// raw intern calls on one Builder and checks each against the
// reference: same ids, hence the same pointer-identity classes, and
// the same numTerms. The raw calls carry the structure asked for, so
// they also catch a key that merged two classes: the term returned
// must have exactly the fields requested.
func internVsReference(t testing.TB, rng *rand.Rand) {
	t.Helper()
	b, ref := NewBuilder(), &refInterner{ids: map[string]int{}}
	names := []string{"x", "y", "z", "p0", "p1", ""}
	pool := []*Term{b.Var(1, "c")}
	ref.sync(t, b)
	// like returns a pooled term of width w, scanning from a random
	// start; every width in the pool has at least the term that set it.
	like := func(w int) *Term {
		for i, at := 0, rng.Intn(len(pool)); ; i++ {
			if tm := pool[(at+i)%len(pool)]; tm.Width == w {
				return tm
			}
		}
	}
	arith := []Op{OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
	cmps := []Op{opEq, OpUlt, OpUle, OpSlt, OpSle}
	for step, n := 0, 20+rng.Intn(200); step < n; step++ {
		x := pool[rng.Intn(len(pool))]
		var got *Term
		switch k := rng.Intn(12); k {
		case 0:
			got = b.Const(1+rng.Intn(64), rng.Uint64()>>uint(rng.Intn(64)))
		case 1:
			got = b.Var(1+rng.Intn(64), names[rng.Intn(len(names))])
		case 2:
			got = b.Bin(arith[rng.Intn(len(arith))], x, like(x.Width))
		case 3:
			got = b.Cmp(cmps[rng.Intn(len(cmps))], x, like(x.Width))
		case 4:
			got = b.Ite(like(1), x, like(x.Width))
		case 5:
			got = b.Not(x)
		case 6:
			got = b.Neg(x)
		case 7:
			got = b.ZExt(x, x.Width+rng.Intn(65-x.Width))
		case 8:
			got = b.SExt(x, x.Width+rng.Intn(65-x.Width))
		case 9:
			got = b.Trunc(x, 1+rng.Intn(x.Width))
		default:
			// Raw: no folding, no canonical operand order — the
			// interner on structures the constructors would not build.
			op, w, val, name := Op(rng.Intn(int(opTrunc)+1)), x.Width, uint64(0), ""
			var kids []*Term
			switch {
			case op == OpConst:
				val = rng.Uint64() & mask(w)
			case op == opVar:
				name = names[rng.Intn(len(names))]
			case op == OpNot || op == opNeg:
				kids = []*Term{x}
			case op == opZExt || op == opSExt:
				w, kids = x.Width+rng.Intn(65-x.Width), []*Term{x}
			case op == opTrunc:
				w, kids = 1+rng.Intn(x.Width), []*Term{x}
			case op == opIte:
				kids = []*Term{like(1), x, like(x.Width)}
			case op >= opEq && op <= OpSle:
				w, kids = 1, []*Term{x, like(x.Width)}
			default:
				kids = []*Term{x, like(x.Width)}
			}
			want, _ := ref.intern(refKey(op, w, val, name, kids))
			got = b.intern(op, w, val, name, kids...)
			if got.id != want {
				t.Fatalf("step %d: raw intern gave id %d, reference %d", step, got.id, want)
			}
			if got.Op != op || got.Width != w || got.Val != val || got.name != name || !slices.Equal(got.Kids, kids) {
				t.Fatalf("step %d: asked for %v w%d val %d name %q kids %v, got %v", step, op, w, val, name, kids, got)
			}
		}
		ref.sync(t, b)
		if id, fresh := ref.intern(refKey(got.Op, got.Width, got.Val, got.name, got.Kids)); fresh || id != got.id {
			t.Fatalf("step %d: result %v has id %d, reference %d (new %v)", step, got, got.id, id, fresh)
		}
		pool = append(pool, got)
	}
}

func TestInternVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		internVsReference(t, rng)
	}
}

// FuzzInternVsReference is internVsReference as a native fuzz target
// (make fuzz-smoke), the fuzzer's bytes steering the call sequence.
func FuzzInternVsReference(f *testing.F) {
	seed := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		data := make([]byte, 1024)
		seed.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		internVsReference(t, rand.New(&byteSource{data, rand.NewSource(int64(len(data)))}))
	})
}

// TestInternThroughGrowths: a builder taken through six table growths
// and past the first 1 024-term chunk hands every term back, same
// pointer and same id, each time it is asked again; the re-interns run
// after every growth, and once more at the end.
func TestInternThroughGrowths(t *testing.T) {
	b := NewBuilder()
	var made []*Term
	check := func(when string) {
		for i, tm := range made {
			if got := b.intern(tm.Op, tm.Width, tm.Val, tm.name, tm.Kids...); got != tm || got.id != i {
				t.Fatalf("%s: term %d (%v) came back as %p, id %d, not %p", when, i, tm, got, got.id, tm)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	slots := len(b.table)
	for len(made) < 3000 {
		var tm *Term
		switch k := rng.Intn(3); {
		case k == 0 || len(made) < 2:
			tm = b.Const(32, uint64(len(made))<<8)
		case k == 1:
			tm = b.Var(32, fmt.Sprintf("v%d", len(made)))
		default:
			op := []Op{OpAnd, OpOr, OpXor}[rng.Intn(3)]
			tm = b.intern(op, 32, 0, "", made[rng.Intn(len(made))], made[rng.Intn(len(made))])
		}
		if tm.id < len(made) {
			continue // asked again, not made
		}
		if tm.id != len(made) {
			t.Fatalf("term %v has id %d, want %d: ids follow creation order", tm, tm.id, len(made))
		}
		made = append(made, tm)
		if len(b.table) != slots {
			slots = len(b.table)
			check(fmt.Sprintf("after growing to %d slots at %d terms", slots, len(made)))
		}
	}
	check("at the end")
	if len(b.table) < 64<<6 || len(made) < 32+64+128+256+512+1024+1 {
		t.Errorf("%d slots over %d terms: the test no longer crosses six growths and the 1 024-term chunk", len(b.table), len(made))
	}
}

// TestZeroBuilderMatchesNewBuilder: a Builder's zero value and
// NewBuilder's result hand out the same ids for the same calls.
func TestZeroBuilderMatchesNewBuilder(t *testing.T) {
	var zero Builder
	made := NewBuilder()
	rz, rn := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for q := 0; q < 200; q++ {
		w := []int{1, 8, 32, 64}[q%4]
		cz, cn := randomCond(&zero, rz, w, 3), randomCond(made, rn, w, 3)
		if cz.id != cn.id || cz.String() != cn.String() {
			t.Fatalf("query %d: the zero Builder made id %d %v, NewBuilder id %d %v", q, cz.id, cz, cn.id, cn)
		}
	}
	if zero.nextID != made.nextID || zero.nextID < 1000 {
		t.Fatalf("%d terms from the zero Builder, %d from NewBuilder: want equal, and past the first table", zero.nextID, made.nextID)
	}
}

// TestKidsAppendReallocates: Kids is a slice of the term's own
// storage, capped at its length, so an append cannot write into it.
func TestKidsAppendReallocates(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	not := b.Not(x)
	_ = append(not.Kids, x)
	if not.own != [3]*Term{x} {
		t.Fatalf("append on Kids wrote into the term: %v", not.own)
	}
}

func TestTermIDOverflowPanics(t *testing.T) {
	b := NewBuilder()
	b.Var(8, "x")
	b.nextID = math.MaxInt32
	if b.Var(8, "x").id != 0 {
		t.Fatal("a hit must not reach the guard")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("interning term 2^31 did not panic")
		}
	}()
	b.Var(8, "y")
}

// randomCond builds a width-1 condition over every operator Eval
// knows, division included, so evaluations that fail (ok == false) are
// compared too.
func randomCond(b *Builder, rng *rand.Rand, w, d int) *Term {
	ops := []Op{OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
	cmps := []Op{opEq, OpUlt, OpUle, OpSlt, OpSle}
	var val func(d int) *Term
	cond := func(d int) *Term { return b.Cmp(cmps[rng.Intn(len(cmps))], val(d), val(d)) }
	val = func(d int) *Term {
		switch k := rng.Intn(12); {
		case d <= 0 || k < 2:
			if rng.Intn(3) == 0 {
				return b.Const(w, rng.Uint64())
			}
			return b.Var(w, []string{"x", "y", "z"}[rng.Intn(3)])
		case k == 2:
			return b.Ite(cond(d-1), val(d-1), val(d-1))
		case k == 3:
			return b.Neg(b.Not(val(d - 1)))
		case k == 4:
			return b.ZExt(b.Trunc(val(d-1), 1+rng.Intn(w)), w)
		case k == 5:
			return b.Trunc(b.SExt(val(d-1), 64), w)
		}
		return b.Bin(ops[rng.Intn(len(ops))], val(d-1), val(d-1))
	}
	c := cond(d)
	for rng.Intn(2) == 0 {
		c = b.BoolOr(b.BoolAnd(c, cond(d)), b.Not(cond(d)))
	}
	return c
}

func randomEnvs(rng *rand.Rand, n int) []map[string]uint64 {
	envs := make([]map[string]uint64, n)
	for i := range envs {
		envs[i] = map[string]uint64{"x": rng.Uint64() >> uint(rng.Intn(64)), "y": rng.Uint64() >> uint(rng.Intn(64))}
		if i%3 != 0 { // z absent reads as 0
			envs[i]["z"] = rng.Uint64()
		}
	}
	return envs
}

// TestSessionMemoAgreesWithEval: one session's memo, over a builder
// that keeps growing between queries and across a generation
// wrap-around, answers TryConcrete exactly as one-shot Eval over the
// same environments would — the first environment, in order, under
// which the condition evaluates to 1.
func TestSessionMemoAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, s := NewBuilder(), NewSession(0)
	envs := randomEnvs(rng, 12)
	for _, env := range envs {
		s.SeedEnv(env)
	}
	pairs, hits := 0, 0
	for q := 0; q < 400; q++ {
		if q == 200 {
			// Stamps written so far are small numbers again within the
			// next few evaluations.
			s.memo.gen = math.MaxUint32 - 5
		}
		cond := randomCond(b, rng, []int{4, 8, 32, 64}[q%4], 3)
		want := -1
		for i, env := range envs {
			pairs++
			if v, ok := Eval(cond, env); ok && v == 1 {
				want = i
				break
			}
		}
		res, hit := s.TryConcrete(cond)
		switch {
		case hit != (want >= 0):
			t.Fatalf("q %d: TryConcrete hit = %v, Eval's first satisfying environment is %d: %v", q, hit, want, cond)
		case hit && !reflect.DeepEqual(res.Model, envs[want]):
			t.Fatalf("q %d: TryConcrete returned %v, Eval is first satisfied by %v", q, res.Model, envs[want])
		case hit:
			hits++
		}
	}
	if pairs < 1000 || hits < 50 || hits > 350 {
		t.Errorf("%d (term, env) pairs, %d of 400 queries hit; the test no longer covers both outcomes", pairs, hits)
	}
	if s.memo.gen > 1<<20 {
		t.Errorf("generation %d: the wrap-around was not crossed", s.memo.gen)
	}
}

// TestSessionMemoWrapForgetsStaleSlots: a slot stamped in the first
// evaluation must not read as current when the counter comes round to
// that stamp again.
func TestSessionMemoWrapForgetsStaleSlots(t *testing.T) {
	b, s := NewBuilder(), NewSession(0)
	x := b.Var(8, "x")
	cond := b.Cmp(OpUlt, b.Bin(OpMul, x, x), b.Const(8, 10))
	s.SeedEnv(map[string]uint64{"x": 5})
	if _, hit := s.TryConcrete(cond); hit {
		t.Fatal("25 < 10")
	}
	s.memo.gen = math.MaxUint32 // the next evaluation is generation 1 again
	s.envs[0] = map[string]uint64{"x": 1}
	if _, hit := s.TryConcrete(cond); !hit {
		t.Fatal("after the wrap the memo answered from the first evaluation's slots")
	}
}

// TestInternAndPrepassAllocateNothing: a term that exists costs no
// allocation to build again, and the pre-pass over a seed list the
// size of alive's allocates nothing once the memo has grown to the
// term.
func TestInternAndPrepassAllocateNothing(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var(16, "x"), b.Var(16, "y"), b.Var(16, "z")
	rebuild := func() *Term {
		sum := b.Bin(OpAdd, b.Bin(OpMul, x, y), b.Const(16, 40000))
		return b.Ite(b.Cmp(OpSlt, sum, z), b.ZExt(b.Trunc(sum, 8), 16), b.Neg(b.Not(sum)))
	}
	rebuild()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"rebuilding an existing term", func() { rebuild() }},
		{"True", func() { b.True() }},
		{"False", func() { b.False() }},
		{"a repeated Const", func() { b.Const(64, 1<<40) }},
		{"a repeated Var", func() { b.Var(16, "x") }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, n)
		}
	}

	// A condition no environment satisfies, the size of one the
	// verifier blasts: every environment is evaluated, over the whole DAG.
	rng := rand.New(rand.NewSource(3))
	never := b.Not(b.Eq(b.Bin(OpMul, x, b.Bin(OpAdd, y, z)), b.Bin(OpAdd, b.Bin(OpMul, x, y), b.Bin(OpMul, x, z))))
	cond := never
	for i := 0; i < 40; i++ {
		cond = b.BoolAnd(cond, b.BoolOr(randomCond(b, rng, 16, 3), never))
	}
	s := NewSession(0)
	for _, env := range randomEnvs(rng, 51) {
		s.SeedEnv(env)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, hit := s.TryConcrete(cond); hit {
			t.Fatal("distributivity failed under some environment")
		}
	}); n != 0 {
		t.Errorf("TryConcrete over 51 environments on a %d-term builder: %v allocations after the first call, want 0", b.numTerms(), n)
	}
}
