package alive

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
	"veriopt/internal/sat"
)

var update = flag.Bool("update", false, "rewrite testdata/seed_envs_golden.json")

const seedSig = `define i32 @f(i32 noundef %0, i8 noundef %1, i1 noundef %2, i64 noundef %3, ptr noundef %4) {
  ret i32 %0
}
`

func seedEnvsJSON(t *testing.T, fn *ir.Function) []byte {
	t.Helper()
	out, err := json.MarshalIndent(seedEnvs(fn), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestSeedEnvsGolden pins the pre-pass environments for one width
// signature — same values, same order — as the function computed them
// when every verification rebuilt them. Which counterexample a
// SemanticError reports depends on this order.
func TestSeedEnvsGolden(t *testing.T) {
	fn, err := ir.ParseFunc(seedSig)
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/seed_envs_golden.json"
	got := seedEnvsJSON(t, fn)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed environments for (i32, i8, i1, i64, ptr) differ from %s", path)
	}
}

// TestSeedEnvsSharedReadOnly: the environments are computed once per
// width signature and then shared by every session on every goroutine,
// which is only sound if nothing writes to them. Verify concurrently
// (run under -race in tier 2) — equivalent pairs, pre-pass
// counterexamples (TryConcrete copies the environment it returns) and
// solver counterexamples — then require the shared list unchanged.
func TestSeedEnvsSharedReadOnly(t *testing.T) {
	fn, err := ir.ParseFunc(seedSig)
	if err != nil {
		t.Fatal(err)
	}
	before := seedEnvsJSON(t, fn)
	if n := testing.AllocsPerRun(10, func() { seedEnvs(fn) }); n != 0 {
		t.Errorf("a repeated signature costs %v mallocs, want 0: it is not memoized", n)
	}
	src := `define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = add i32 %0, %1
  %4 = mul i32 %3, 2
  ret i32 %4
}
`
	targets := []struct {
		tgt  string
		want Verdict
	}{
		{`define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = add i32 %1, %0
  %4 = shl i32 %3, 1
  ret i32 %4
}
`, Equivalent},
		{`define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = add i32 %0, %1
  %4 = mul i32 %3, 3
  ret i32 %4
}
`, SemanticError},
		{`define i32 @f(i32 noundef %0, i32 noundef %1) {
  %3 = add i32 %0, %1
  %4 = mul i32 %3, 2
  %5 = icmp eq i32 %0, 123456789
  %6 = select i1 %5, i32 7, i32 %4
  ret i32 %6
}
`, SemanticError},
	}
	want := make([]Result, len(targets))
	for i, c := range targets {
		want[i] = verify(t, src, c.tgt)
		wantVerdict(t, want[i], c.want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				c := (g + i) % len(targets)
				res, err := VerifyText(src, targets[c].tgt, DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				if res.Verdict != want[c].Verdict || res.Diag != want[c].Diag {
					t.Errorf("goroutine %d: target %d: %v %q, sequentially %v %q", g, c, res.Verdict, res.Diag, want[c].Verdict, want[c].Diag)
				}
				// A caller may do what it likes with its counterexample.
				for k := range res.Counterexample {
					res.Counterexample[k] = ^uint64(0)
				}
			}
		}(g)
	}
	wg.Wait()
	if after := seedEnvsJSON(t, fn); !bytes.Equal(before, after) {
		t.Fatal("the shared seed environments changed under concurrent verification")
	}
}

// TestSessionsShareSeedList: sessions seeded from one memoized list
// share it until each appends its first model, which must copy it (run
// under -race in tier 2: an append in place would be two goroutines
// writing one slot). Two sessions on two goroutines each find a model
// only the solver finds; afterwards each session's pre-pass holds its
// own model and not the other's, and the memoized list is as it was.
func TestSessionsShareSeedList(t *testing.T) {
	fn, err := ir.ParseFunc("define i32 @f(i32 noundef %0, i32 noundef %1) {\n  ret i32 %0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	before, n := seedEnvsJSON(t, fn), len(seedEnvs(fn))
	type side struct {
		b    *bv.Builder
		sess *bv.Session
		own  *bv.Term
	}
	sides := make([]side, 2)
	for i := range sides {
		b := bv.NewBuilder()
		x, y := b.Var(32, inputName(0)), b.Var(32, inputName(1))
		sides[i] = side{b: b, sess: sessionProof(fn, DefaultOptions(), nil).(*sessionSolver).sess,
			own: b.BoolAnd(b.Eq(x, b.Const(32, 0x5a5a0000+uint64(i))), b.Eq(y, b.Const(32, 0x12340000+uint64(i))))}
		if _, hit := sides[i].sess.TryConcrete(sides[i].own); hit {
			t.Fatalf("side %d: a seed environment already satisfies the query", i)
		}
	}
	var wg sync.WaitGroup
	for i := range sides {
		wg.Add(1)
		go func(s side) {
			defer wg.Done()
			if res, err := s.sess.Check(s.own); err != nil || res.Status != sat.Sat {
				t.Errorf("%v, %v: want a model", res.Status, err)
			}
		}(sides[i])
	}
	wg.Wait()
	for i, s := range sides {
		// The other side's query, asked through this side's builder.
		x, y := s.b.Var(32, inputName(0)), s.b.Var(32, inputName(1))
		other := s.b.BoolAnd(s.b.Eq(x, s.b.Const(32, 0x5a5a0000+uint64(1-i))), s.b.Eq(y, s.b.Const(32, 0x12340000+uint64(1-i))))
		if _, hit := s.sess.TryConcrete(s.own); !hit {
			t.Errorf("side %d: its own model is not in its pre-pass", i)
		}
		if _, hit := s.sess.TryConcrete(other); hit {
			t.Errorf("side %d: the pre-pass holds side %d's model", i, 1-i)
		}
	}
	if after := seedEnvsJSON(t, fn); len(seedEnvs(fn)) != n || !bytes.Equal(before, after) {
		t.Fatal("a session's model reached the memoized seed list")
	}
}
