package veriopt

import (
	"context"
	"runtime"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/instcombine"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/seqopt"
	"veriopt/internal/vcache"
)

// The IR front half — parse, cache key, pass probing — is what every
// cache hit and every search state pays before any solver work. The
// ceilings below hold its allocation counts in `go test ./...`, about
// 20 % above what the slab parser, the dense CFG analysis, the one-pass
// key and in-place step probing achieve on midFn (26, 6, 7 and 163;
// the parser read 96 with an object per instruction and operand list,
// VerifyFunc 37 with a map per CFG question; with the rune-by-rune
// lexer, the clone-and-renumber key and per-position clones parse, key
// and pass were 566, 413 and 39 105, and the combine pass was still
// 1362 while DeadCodeElim built a use list per definition and
// combiner.fresh ran Sscanf over every name), so a regression fails
// tier-1 and not only the benchmark. `make bench-ir` prints the numbers
// themselves. A search state is also one ir.CloneFunc per expanded
// state: 12 on midFn with everything taken from a slab per kind, as the
// parser does (74 with an object per instruction, parameter and block
// and a slice per list, 76 with the value map keyed by the Value
// interface and grown from empty, 111 when the slices grew by append).
// One interp.Run, which the benchmark's labeller and every differential
// test call once per input, is 7 (9 with one map[ir.Value]Val for
// everything and a fresh phi map per block visit).
// Key.Fingerprint runs on every query, hot hits included, and twice more
// under a store: 0 on a key that fits its 2 KB stack buffer (2, and four
// times the CPU, through json.Marshal). Every search state and corpus
// input is canonically numbered, and its key prints under its own names:
// 2 on a renumbered midFn, the buffer and the string (3 under -race; 7
// while the printer mapped every value to its number and was itself on
// the heap).
//
// The last two rows are what a search pays outside the SAT search, and
// their ceilings are about 5 % above what they read: one verification
// (310 allocations; 317 while a path state kept its values and cells in
// two maps, 553 before that when bv.Builder allocated a term and a
// formatted key before looking it up, and the concrete pre-pass a map
// per environment) and one whole Beam on a stack nothing has warmed
// (1121; 1192 with those maps and the key's, 2579 with a clone an
// object per instruction, 10 658 with that interner and a clone per
// pass application instead of one working copy per expanded state).

const midFn = `define i32 @mid(i32 noundef %a, i32 noundef %b, i32 noundef %c) {
entry:
  %t0 = add nsw i32 %a, 0
  %t1 = mul i32 %t0, 8
  %t2 = shl i32 %b, 2
  %t3 = shl i32 %t2, 3
  %t4 = xor i32 %t1, %t1
  %t5 = or i32 %t3, %t4
  %t6 = sub i32 %t5, 0
  %t7 = and i32 %t6, -1
  %cmp = icmp sgt i32 %t7, %c
  br i1 %cmp, label %then, label %else

then:
  %u0 = add i32 %t7, 5
  %u1 = add i32 %u0, 7
  %u2 = udiv i32 %u1, 4
  %u3 = mul i32 %u2, 1
  br label %join

else:
  %v0 = sub i32 %c, %c
  %v1 = add i32 %v0, %t7
  %v2 = lshr i32 %v1, 1
  %v3 = lshr i32 %v2, 2
  %v4 = select i1 true, i32 %v3, i32 %a
  br label %join

join:
  %p = phi i32 [ %u3, %then ], [ %v4, %else ]
  %w0 = xor i32 %p, 0
  %w1 = trunc i32 %w0 to i8
  %w2 = zext i8 %w1 to i32
  ret i32 %w2
}
`

func midFunc(tb testing.TB) *ir.Function {
	tb.Helper()
	f, err := ir.ParseFunc(midFn)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func combinePass(tb testing.TB) *seqopt.Pass {
	tb.Helper()
	p := seqopt.Registry()[0]
	if p.Name != "combine" {
		tb.Fatalf("registry[0] is %s, want combine", p.Name)
	}
	return p
}

// verifyMid is one verification on a search's path: midFn against its
// instcombine output.
func verifyMid(tb testing.TB, f, opt *ir.Function) alive.Result {
	r := alive.VerifyFuncs(f, opt, alive.DefaultOptions())
	if r.Verdict != alive.Equivalent {
		tb.Fatalf("midFn against its instcombine output: %s", r.Verdict)
	}
	return r
}

// beamMid is one search on a stack nothing has warmed, as search-cold
// runs them.
func beamMid(tb testing.TB, f *ir.Function) *seqopt.SearchResult {
	res, err := seqopt.Beam(context.Background(), f, seqopt.SearchConfig{Oracle: oracle.NewStack(oracle.Config{})})
	if err != nil || !res.Improved() {
		tb.Fatalf("beam over midFn: improved %v, err %v", res.Improved(), err)
	}
	return res
}

// runMid is one concrete execution, as the corpus labeller makes them.
func runMid(tb testing.TB, f *ir.Function) *interp.Outcome {
	o, err := interp.Run(f, []interp.Val{interp.V(9), interp.V(3), interp.V(40)}, interp.DefaultConfig())
	if err != nil || o.UB {
		tb.Fatalf("midFn on (9, 3, 40): %+v, %v", o, err)
	}
	return o
}

func TestIRFrontHalfAllocCeilings(t *testing.T) {
	f, combine := midFunc(t), combinePass(t)
	opt := instcombine.Run(f)
	key := midKey(f, opt)
	renumbered := ir.CloneFunc(f)
	ir.RenumberFunc(renumbered)
	if _, changed := combine.Apply(f); !changed {
		t.Fatal("combine does not fire on midFn; its ceiling would be vacuous")
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"ir.ParseFunc", 31, func() { midFunc(t) }},
		{"ir.VerifyFunc", 8, func() { _ = ir.VerifyFunc(f) }},
		{"vcache.KeyOfFunc", 8, func() { vcache.KeyOfFunc(f) }},
		{"vcache.KeyOfFunc, renumbered", 3, func() { vcache.KeyOfFunc(renumbered) }},
		{"vcache.Key.Fingerprint", 0, func() { key.Fingerprint() }},
		{"combine pass", 195, func() { combine.Apply(f) }},
		{"ir.CloneFunc", 15, func() { ir.CloneFunc(f) }},
		{"interp.Run", 8, func() { runMid(t, f) }},
		{"alive.VerifyFuncs", 325, func() { verifyMid(t, f, opt) }},
		{"seqopt.Beam", 1175, func() { beamMid(t, f) }},
	} {
		if got := testing.AllocsPerRun(50, tc.fn); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per run on midFn, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestGeneratedSampleRetention holds what a generated corpus keeps alive
// per sample after a collection: the O0 function, its instcombine
// reference, their texts and the module. The reference is the one clone
// the product keeps after mutating away most of it, so this is where a
// clone that pinned its deleted instructions would show (serve-cold's
// set-up holds a corpus of them). The ceiling is about 5 % above what
// this read while a clone was an object per instruction: 6 345–6 382
// bytes then, 6 397 with slabs, 7 840 with slabs and instcombine.Run
// returning its working copy instead of a clone of it.
func TestGeneratedSampleRetention(t *testing.T) {
	const n, ceiling = 1024, 6700
	generate := func(n int) []*dataset.Sample {
		samples, err := dataset.Generate(dataset.Config{Seed: 12, N: n, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	generate(64) // package-level tables and memos, built on first use
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	samples := generate(n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(samples)
	t.Logf("%.0f bytes retained per sample", perSample)
	if perSample > ceiling {
		t.Errorf("%.0f bytes retained per generated sample, ceiling %d", perSample, ceiling)
	}
}

var benchSink any

func BenchmarkParseFunc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = midFunc(b)
	}
}

func BenchmarkVerifyFunc(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ir.VerifyFunc(f)
	}
}

func BenchmarkKeyOfFunc(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = vcache.KeyOfFunc(f)
	}
}

// midKey is the query midFn against its instcombine output is cached
// under: 1.2 KB as JSON, between the corpus's median and its largest.
func midKey(f, opt *ir.Function) vcache.Key {
	return vcache.Key{Src: vcache.KeyOfFunc(f), Dst: vcache.KeyOfFunc(opt), Opts: alive.DefaultOptions()}
}

func BenchmarkKeyFingerprint(b *testing.B) {
	f := midFunc(b)
	k := midKey(f, instcombine.Run(f))
	b.SetBytes(int64(len(k.Src) + len(k.Dst)))
	b.ReportAllocs()
	b.ResetTimer()
	var sum byte
	for i := 0; i < b.N; i++ {
		sum += k.Fingerprint()[0]
	}
	benchSink = sum
}

func BenchmarkCloneFunc(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ir.CloneFunc(f)
	}
}

func BenchmarkCombinePass(b *testing.B) {
	f, combine := midFunc(b), combinePass(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = combine.Apply(f)
	}
}

func BenchmarkVerifyMid(b *testing.B) {
	f := midFunc(b)
	opt := instcombine.Run(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = verifyMid(b, f, opt)
	}
}

func BenchmarkBeamMid(b *testing.B) {
	f := midFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = beamMid(b, f)
	}
}

// BenchmarkVerifyTail is the verifier's tail as a command: the three
// corpus shapes that were 78 % of serve-warm's fill while they went to
// the solver (i64 negation, sdiv by 2^k and xor-cancel: 35 ms, 8 ms and
// 2.3 ms apiece on this host then, 5–10 µs now), multi-var (220 µs
// then), and known-bits as the control the normal form does not fold. Each is a template's source against its
// instcombine output.
func BenchmarkVerifyTail(b *testing.B) {
	for _, tc := range []struct{ name, src string }{
		{"negation-i64", "define i64 @f(i64 noundef %0, i64 noundef %1) {\n  %3 = sub i64 0, %1\n  %4 = add i64 %0, %3\n  ret i64 %4\n}\n"},
		{"sdiv-pow2-i64", "define i64 @f(i64 noundef %0) {\n  %2 = sdiv i64 %0, 65536\n  ret i64 %2\n}\n"},
		{"xor-cancel-i64", "define i64 @f(i64 noundef %0, i64 noundef %1) {\n  %3 = xor i64 %0, %1\n  %4 = xor i64 %3, %1\n  ret i64 %4\n}\n"},
		{"multi-var-i32", "define i32 @f(i32 noundef %0, i32 noundef %1, i32 noundef %2) {\n  %4 = add i32 %0, %1\n  %5 = mul i32 %4, 4\n  %6 = sub i32 %5, %2\n  %7 = add i32 %6, 0\n  ret i32 %7\n}\n"},
		{"known-bits-i32", "define i32 @f(i32 noundef %0) {\n  %2 = and i32 %0, 7\n  %3 = icmp ult i32 %2, 9\n  %4 = zext i1 %3 to i32\n  ret i32 %4\n}\n"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, err := ir.ParseFunc(tc.src)
			if err != nil {
				b.Fatal(err)
			}
			opt := instcombine.Run(f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := alive.VerifyFuncs(f, opt, alive.DefaultOptions())
				if r.Verdict != alive.Equivalent {
					b.Fatalf("%s against its instcombine output: %s", tc.name, r.Verdict)
				}
				benchSink = r
			}
		})
	}
}

// BenchmarkInterpRun is the labeller's call: one-shot runs, a different
// function each time (256 samples across the five families), so a
// set-up cost a single hot function would amortize is paid in full.
func BenchmarkInterpRun(b *testing.B) {
	samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 256, SkipVerify: true})
	if err != nil || len(dataset.ScenarioCounts(samples)) != 5 {
		b.Fatalf("%d scenario families, err %v", len(dataset.ScenarioCounts(samples)), err)
	}
	args := make([][]interp.Val, len(samples))
	for i, s := range samples {
		for j := range s.O0.Params {
			args[i] = append(args[i], interp.V(uint64(7*i+j+1)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(samples)
		benchSink, _ = interp.Run(samples[k].O0, args[k], interp.DefaultConfig())
	}
}

// BenchmarkGenerateSkipVerify is the corpus path under setup_s less the
// labelling: lower, instcombine, print, the context-length filter.
func BenchmarkGenerateSkipVerify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		samples, err := dataset.Generate(dataset.Config{Seed: 12, N: 1024, SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = samples
	}
}
