package alive

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"

	"veriopt/internal/ir"
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
