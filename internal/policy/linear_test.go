package policy

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"veriopt/internal/alive"
)

// testLinear is a small scorer with every weight non-zero.
func testLinear(work bool) Linear {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear(5, 3, 0.7, work, rng)
	for _, vs := range l.trainable(nil) {
		for i := range vs {
			vs[i] = rng.NormFloat64()
		}
	}
	return l
}

// TestAddGradMatchesFiniteDifference checks the one log-softmax
// gradient against a central difference of log Softmax[chosen] in
// every B, S and P coordinate, with and without the work feature.
func TestAddGradMatchesFiniteDifference(t *testing.T) {
	for _, work := range []bool{true, false} {
		l := testLinear(work)
		h := HashFeatures(3, "", "some input")
		rec := ActionRecord{Cands: []int{0, 2, 3, 4}, StepFrac: 0.4, Work: 0.6, Chosen: 2}
		r := Rollout{H: h, Actions: []ActionRecord{rec}}
		g := l.Grad()
		l.AddGrad(g, r, 1)
		logp := func() float64 {
			return math.Log(l.Softmax(rec.Cands, rec.StepFrac, rec.Work, h)[rec.Chosen])
		}
		params, grads := l.trainable(nil), g.trainable(nil)
		for v := range params {
			for a := range params[v] {
				const eps = 1e-6
				saved := params[v][a]
				params[v][a] = saved + eps
				up := logp()
				params[v][a] = saved - eps
				down := logp()
				params[v][a] = saved
				if fd := (up - down) / (2 * eps); math.Abs(fd-grads[v][a]) > 1e-7 {
					t.Errorf("work=%v vector %d action %d: AddGrad %v, finite difference %v", work, v, a, grads[v][a], fd)
				}
			}
		}
		if (g.P == nil) != !work {
			t.Errorf("work=%v: gradient P = %v", work, g.P)
		}
		// scale multiplies, and accumulation adds.
		l.AddGrad(g, r, -1)
		for _, vs := range g.trainable(nil) {
			for a, v := range vs {
				if v != 0 {
					t.Errorf("work=%v: +1 then -1 left %v at %d", work, v, a)
				}
			}
		}
	}
}

// TestDiagHeadAddGradMatchesFiniteDifference is the same check for
// the dense twin.
func TestDiagHeadAddGradMatchesFiniteDifference(t *testing.T) {
	m := New(CapQwen3B, 3)
	d := m.Diag
	f := m.DiagFeatures(Rollout{H: m.HashFeatures("x")})
	g := cloneRows(d.W)
	for _, row := range g {
		clear(row)
	}
	const class = int(DiagSemanticError)
	d.AddGrad(g, f, class, 1)
	for c := range d.W {
		for j := range d.W[c] {
			const eps = 1e-6
			saved := d.W[c][j]
			d.W[c][j] = saved + eps
			up := math.Log(d.ClassProbs(f)[class])
			d.W[c][j] = saved - eps
			down := math.Log(d.ClassProbs(f)[class])
			d.W[c][j] = saved
			if fd := (up - down) / (2 * eps); math.Abs(fd-g[c][j]) > 1e-7 {
				t.Errorf("W[%d][%d]: AddGrad %v, finite difference %v", c, j, g[c][j], fd)
			}
		}
	}
}

// TestChooseGreedyPicksFirstMaximum: without an RNG Choose is argmax
// over logits with ties toward the earlier candidate; with one it
// samples every candidate the softmax gives mass to.
func TestChooseGreedyPicksFirstMaximum(t *testing.T) {
	l := Linear{B: []float64{0, 3, 3, 1}, S: make([]float64, 4), N: make([][]float64, 4)}
	if got := l.Choose([]int{0, 1, 2, 3}, 0.5, 0, nil, nil); got != 1 {
		t.Errorf("greedy chose index %d, want 1 (first of the tied maxima)", got)
	}
	if got := l.Choose([]int{3, 2, 1}, 0.5, 0, nil, nil); got != 1 {
		t.Errorf("greedy chose index %d of [3 2 1], want 1", got)
	}
	seen := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		seen[l.Choose([]int{0, 1, 2, 3}, 0.5, 0, nil, rng)] = true
	}
	if len(seen) != 4 {
		t.Errorf("400 samples reached only %v", seen)
	}
}

// TestClipStep: the return value is the pre-clip global norm over B,
// S, P and the dense head; a gradient above clip moves the parameters
// by exactly lr·clip in norm, one below it by lr·norm; and the result
// is clamped.
func TestClipStep(t *testing.T) {
	moved := func(before, after Linear, db, da [][]float64) float64 {
		sum := 0.0
		b, a := before.trainable(db), after.trainable(da)
		for v := range b {
			for i := range b[v] {
				sum += (a[v][i] - b[v][i]) * (a[v][i] - b[v][i])
			}
		}
		return math.Sqrt(sum)
	}
	const lr, clip = 0.5, 2
	for _, gscale := range []float64{10, 0.01} { // far above clip, far below
		l := testLinear(true)
		dense := [][]float64{{0.1, -0.2}, {0.3, 0.4}}
		g := l.Grad()
		rng := rand.New(rand.NewSource(4))
		gDense := [][]float64{{0, 0}, {0, 0}}
		want := 0.0
		for _, vs := range g.trainable(gDense) {
			for i := range vs {
				vs[i] = rng.NormFloat64() * gscale
				want += vs[i] * vs[i]
			}
		}
		want = math.Sqrt(want)
		before, denseBefore := l.clone(), cloneRows(dense)
		got := l.ClipStep(g, dense, gDense, lr, clip, 0)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("gradient norm %v: returned %v, want the pre-clip norm", want, got)
		}
		if mv, wantMv := moved(before, l, denseBefore, dense), lr*math.Min(want, clip); math.Abs(mv-wantMv) > 1e-9 {
			t.Errorf("gradient norm %v: parameters moved %v, want %v", want, mv, wantMv)
		}
	}

	// The clamp applies after the step, to the dense head too.
	l := testLinear(true)
	dense := [][]float64{{0, 0}}
	g := l.Grad()
	g.B[0], g.P[1] = 100, -100
	l.ClipStep(g, dense, [][]float64{{100, -100}}, 1, 0, 1.5)
	for _, vs := range l.trainable(dense) {
		for i, v := range vs {
			if math.Abs(v) > 1.5 {
				t.Errorf("parameter %d = %v escapes the 1.5 budget", i, v)
			}
		}
	}
	if l.B[0] != 1.5 || l.P[1] != -1.5 || dense[0][0] != 1.5 || dense[0][1] != -1.5 {
		t.Errorf("clamp did not saturate: B[0]=%v P[1]=%v dense=%v", l.B[0], l.P[1], dense)
	}

	// A head with no gradient (a step its component does not pay) does
	// not move, but is clamped all the same.
	dense = [][]float64{{3, -0.5}}
	l.ClipStep(l.Grad(), dense, nil, 1, 0, 1.5)
	if dense[0][0] != 1.5 || dense[0][1] != -0.5 {
		t.Errorf("a head without a gradient reads %v, want [[1.5 -0.5]]", dense)
	}
}

// TestHashFeaturesGolden pins both embeddings bit for bit. The values
// are what the two functions this one replaced — the token policy's
// (salt "") and the sequence policy's (salt "seq") — returned at the
// commit before they were merged.
func TestHashFeaturesGolden(t *testing.T) {
	const fn = "define i32 @f(i32 %0) {\n  ret i32 %0\n}\n"
	for _, tc := range []struct {
		salt, text string
		want       [4]uint64
	}{
		{"", "", [4]uint64{0x3fe0004118c0b5a3, 0x3fe00111e5aac7c8, 0x3fdffdde3ccd48ec, 0x3fdfff7b9fc2585a}},
		{"seq", "", [4]uint64{0x3fe000d1bc0c613e, 0x3fe00027b6375343, 0x3fdfff7434260bd1, 0x3fdffe98d32199de}},
		{"", fn, [4]uint64{0xbfc4683d6b251f35, 0x3fe8b3bcae570fb2, 0xbfc3f79b651cc108, 0xbfe30c8392893497}},
		{"seq", fn, [4]uint64{0xbfcd72bba55fba5b, 0x3fed369be1b7686a, 0xbfd1a6e540a15ad2, 0xbfc8d07ee6c17a3b}},
	} {
		got := HashFeatures(4, tc.salt, tc.text)
		for j, v := range got {
			if math.Float64bits(v) != tc.want[j] {
				t.Errorf("salt %q text %q feature %d: %#x, want %#x", tc.salt, tc.text, j, math.Float64bits(v), tc.want[j])
			}
		}
	}
	if got, want := New(CapQwen3B, 1).HashFeatures(fn), HashFeatures(CapQwen3B.HashFeatures, "", fn); len(got) != len(want) || got[0] != want[0] {
		t.Errorf("Model.HashFeatures = %v, want the unsalted embedding %v", got, want)
	}
}

// TestEmulatedSyntaxDiagSharesRealPrefix: the CoT reward BLEU-scores
// the model's emulated Alive2 message against the verifier's real one,
// so the emulated syntax diagnostic must open with the text the real
// one opens with.
func TestEmulatedSyntaxDiagSharesRealPrefix(t *testing.T) {
	m := New(CapQwen3B, 4)
	m.Diag.W[DiagSyntaxError][0] = 100 // the bias feature: always predict a syntax error
	ep := m.Generate(testFn(t), GenOptions{Augmented: true})
	if ep.Diag.PredictedClass != DiagSyntaxError {
		t.Fatalf("predicted %v", ep.Diag.PredictedClass)
	}
	emulated, ok := strings.CutPrefix(ep.Diag.Message, "\n; Alive2: ")
	if !ok {
		t.Fatalf("emulated message %q", ep.Diag.Message)
	}
	real, err := alive.VerifyText("define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n", "definitely not IR", alive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if real.Verdict != alive.SyntaxError || !strings.HasPrefix(real.Diag, alive.DiagParsePrefix) {
		t.Fatalf("real diagnostic %+v", real)
	}
	if !strings.HasPrefix(emulated, alive.DiagParsePrefix) {
		t.Errorf("emulated %q does not share the real prefix %q", emulated, alive.DiagParsePrefix)
	}
}
