package grpo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/dataset"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
	"veriopt/internal/seqopt"
)

func corpus(t *testing.T, n int) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 5, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// stepBg and trainBg run a trainer's StepCtx and TrainCtx under a
// context that never ends, where the only error is nil.
func stepBg(stepCtx func(context.Context) (float64, error)) float64 {
	norm, _ := stepCtx(context.Background())
	return norm
}

func trainBg(trainCtx func(context.Context, int) error, n int) {
	_ = trainCtx(context.Background(), n)
}

// testStack is the stack the package's tests share, so verdicts proved
// by one test are cache hits for the next.
var testStack = oracle.NewStack(oracle.Config{})

// scoreIn is score on testStack in mode, under the training verifier
// bounds, with BLEU shaping on or off.
func scoreIn(mode RewardMode, shaping bool, ep *policy.Episode, s *dataset.Sample) episodeScore {
	cfg := Config{Mode: mode, NoBleuShaping: !shaping}
	return score(context.Background(), testStack, s, labelOf(s, &cfg), ep, &cfg)
}

func TestRewardEq1Hierarchy(t *testing.T) {
	samples := corpus(t, 4)
	s := samples[0]

	// Exact instcombine output: top reward 4 (t=1, a=1, m=1, b=1).
	epExact := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: true}
	rExact := scoreIn(ModeCorrectness, true, epExact, s).r[answer]
	if math.Abs(rExact-4) > 1e-9 {
		t.Errorf("exact-match reward = %v, want 4", rExact)
	}

	// Copy of input: correct but no exact match (2 + BLEU).
	epCopy := &policy.Episode{FinalText: s.O0Text, AttemptText: s.O0Text, FormatOK: true}
	rCopy := scoreIn(ModeCorrectness, true, epCopy, s).r[answer]
	if rCopy <= 2 || rCopy >= rExact {
		t.Errorf("copy reward = %v, want in (2, %v)", rCopy, rExact)
	}

	// Garbage: only BLEU-ish scraps, and t=1 keeps the format point.
	epBad := &policy.Episode{FinalText: "not ir at all", AttemptText: "not ir at all", FormatOK: true}
	esBad := scoreIn(ModeCorrectness, true, epBad, s)
	if esBad.attempt.Verdict != alive.SyntaxError {
		t.Fatalf("garbage verdict = %v", esBad.attempt.Verdict)
	}
	if esBad.r[answer] >= rCopy {
		t.Errorf("garbage reward %v not below copy reward %v", esBad.r[answer], rCopy)
	}

	// Format break zeroes the t term.
	epNoFmt := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: false}
	rNoFmt := scoreIn(ModeCorrectness, true, epNoFmt, s).r[answer]
	if math.Abs(rNoFmt-1) > 1e-9 { // b = 1 only
		t.Errorf("format-broken exact reward = %v, want 1", rNoFmt)
	}
}

func TestCoTRewardAgreement(t *testing.T) {
	samples := corpus(t, 2)
	s := samples[0]

	mk := func(attempt string, cls policy.DiagClass, msg string) float64 {
		ep := &policy.Episode{
			FinalText:   s.RefText,
			AttemptText: attempt,
			FormatOK:    true,
			Diag:        &policy.DiagRecord{PredictedClass: cls, Message: msg},
		}
		return scoreIn(ModeCorrectnessCoT, true, ep, s).r[think]
	}

	// Agreement on OK.
	if r := mk(s.RefText, policy.DiagOK, "ok"); r != 1 {
		t.Errorf("agree-OK reward = %v, want 1", r)
	}
	// Disagreement: verifier OK, model says error.
	if r := mk(s.RefText, policy.DiagSemanticError, "ERROR: Value mismatch"); r != 0 {
		t.Errorf("disagree reward = %v, want 0", r)
	}
	// Agreement on ERR: 0.5 + BLEU share.
	r := mk("garbage text", policy.DiagSyntaxError, "ERROR: couldn't parse transformed IR")
	if r < 0.5 || r > 1 {
		t.Errorf("agree-ERR reward = %v, want in [0.5, 1]", r)
	}
}

func TestLatencyRewardShape(t *testing.T) {
	const umax = 3.0
	if latencyReward(alive.SemanticError, 5, umax) != 0 {
		t.Error("unverified output must get 0")
	}
	if latencyReward(alive.Equivalent, 1.0, umax) != 0 {
		t.Error("no speedup must get 0 (copies included)")
	}
	r2 := latencyReward(alive.Equivalent, 2, umax)
	r3 := latencyReward(alive.Equivalent, 3, umax)
	r9 := latencyReward(alive.Equivalent, 9, umax)
	if !(r2 > 0 && r2 < r3) {
		t.Errorf("reward not increasing: r2=%v r3=%v", r2, r3)
	}
	if r3 != 1 || r9 != 1 {
		t.Errorf("saturation failed: r3=%v r9=%v", r3, r9)
	}
	// Convexity: γ>1 emphasizes larger speedups.
	rHalf := latencyReward(alive.Equivalent, 2, umax)
	if math.Abs(rHalf-0.25) > 1e-9 {
		t.Errorf("r(u=2, umax=3, γ=2) = %v, want 0.25", rHalf)
	}
}

// TestPercentileIndexNearestRank pins the nearest-rank index math:
// the old int(p/100*(n-1)) truncation selected index 2 for the 80th
// percentile of 4 samples, biasing UMax low on small corpora.
func TestPercentileIndexNearestRank(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		// 80th percentile across n=1..5 (the small-corpus regression).
		{80, 1, 0}, {80, 2, 1}, {80, 3, 2}, {80, 4, 3}, {80, 5, 3},
		// Half-ranks round up.
		{50, 1, 0}, {50, 2, 0}, {50, 3, 1}, {50, 4, 1}, {50, 5, 2},
		// Extremes.
		{0, 4, 0}, {100, 4, 3},
		{25, 4, 0}, {75, 4, 2}, {100, 1, 0}, {0, 1, 0},
	}
	for _, c := range cases {
		if got := percentileIndex(c.p, c.n); got != c.want {
			t.Errorf("percentileIndex(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestComputeUMax(t *testing.T) {
	samples := corpus(t, 20)
	if u := ComputeUMax(samples); u <= 1 {
		t.Errorf("UMax = %v, want > 1", u)
	}
}

func TestTrainingImprovesVerifiedFraction(t *testing.T) {
	samples := corpus(t, 30)
	m := policy.New(policy.CapQwen3B, 3)
	cfg := DefaultConfig()
	tr := NewTrainer(testStack, m, samples, cfg, 11)
	trainBg(tr.TrainCtx, 15)
	if len(tr.RewardHistory) != 15 {
		t.Fatalf("history length %d, want 15", len(tr.RewardHistory))
	}
	if first, last := tr.RewardHistory[0], tr.RewardHistory[14]; last <= first {
		t.Errorf("mean reward did not improve: %v -> %v", first, last)
	}
}

func TestFailureCollection(t *testing.T) {
	samples := corpus(t, 12)
	m := policy.New(policy.CapQwen3B, 3)
	tr := NewTrainer(testStack, m, samples, DefaultConfig(), 12)
	tr.CollectFailures = true
	trainBg(tr.TrainCtx, 3)
	if len(tr.Failures) == 0 {
		t.Fatal("no failures harvested from the untrained model")
	}
	for _, fs := range tr.Failures {
		if fs.TrueClass == policy.DiagOK {
			t.Error("failure recorded with OK class")
		}
		if fs.TrueDiag == "" {
			t.Error("failure without verifier diagnostic")
		}
	}
}

func TestGradClipBoundsUpdate(t *testing.T) {
	samples := corpus(t, 8)
	m := policy.New(policy.CapQwen3B, 3)
	cfg := DefaultConfig()
	cfg.ClipNorm = 0.001 // practically freeze the model
	before := append([]float64(nil), m.B...)
	tr := NewTrainer(testStack, m, samples, cfg, 13)
	trainBg(tr.TrainCtx, 2)
	maxDelta := 0.0
	for a := range m.B {
		d := math.Abs(m.B[a] - before[a])
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta > 0.5 {
		t.Errorf("clip did not bound the update: max ΔB = %v", maxDelta)
	}
}

// TestScoreCountsExactAndSpeedup: the instcombine label itself scores
// the exact-match point of Eq. 1 in the correctness modes, and in the
// latency mode Eq. 4 of the speedup of the function parsed from it.
func TestScoreCountsExactAndSpeedup(t *testing.T) {
	const umax = 3.0
	sped := 0
	for _, s := range corpus(t, 8) {
		ep := &policy.Episode{FinalText: s.RefText, AttemptText: s.RefText, FormatOK: true}
		if es := scoreIn(ModeCorrectness, false, ep, s); es.r[answer] != 3 || es.attempt.Verdict != alive.Equivalent {
			t.Errorf("%s: label scored %v (%v), want 3: t, a and m", s.Name, es.r[answer], es.attempt.Verdict)
		}
		u := costmodel.Speedup(costmodel.Measure(s.O0), costmodel.Measure(s.Ref))
		if u > 1 {
			sped++
		}
		cfg := Config{Mode: ModeLatency, UMax: umax}
		if got, want := score(context.Background(), testStack, s, labelOf(s, &cfg), ep, &cfg).r[answer], latencyReward(alive.Equivalent, u, umax); got != want {
			t.Errorf("%s: latency reward %v, want %v (speedup %v)", s.Name, got, want, u)
		}
	}
	if sped == 0 {
		t.Fatal("no label in the corpus is faster than its input; the latency check is vacuous")
	}
}

// stepCell is one fixed rollout cell: its rewards by component, and the
// decisions the credit rule says each component pays, in the order the
// step adds them (correction, then attempt, then diagnosis).
type stepCell struct {
	es      episodeScore
	credits []credit
}

// credit is one (decisions, component) pair: a rollout r, or the
// diagnosis d when it is set, paid component c's advantage.
type credit struct {
	c int
	r policy.Rollout
	d *policy.DiagRecord
}

func fixedCell(ep policy.Episode, r [components]float64, credits ...credit) stepCell {
	return stepCell{es: episodeScore{ep: ep, r: r}, credits: credits}
}

// TestStepCreditsEachComponent holds StepCtx to the credit rule, one
// group-relative advantage per reward component paid only to the
// decisions that earned it: with no diagnosis (the generic prompt, and
// every sequence episode) the attempt is the answer; with one, the
// answer pays the correction (nothing when none ran), the attempt its
// own rollout, and think the diagnosis. Each case runs one Workers-1
// step over fixed cells at LR 1 with no clip and no clamp, so the
// parameters must move by exactly the sum of AddGrad over the pairs
// each cell names, each scaled by its component's advantage over the
// step's token count.
func TestStepCreditsEachComponent(t *testing.T) {
	const group = 3
	data := corpus(t, 4)
	reward := func(i int, paysThink bool) [components]float64 {
		r := [components]float64{float64(i * 5 % 7), float64(i*3%4) / 2}
		if paysThink && i >= group { // zero in the first group only
			r[think] = float64(i*2%3) / 4
		}
		return r
	}
	tokenCells := func(m *policy.Model, paysThink bool) []stepCell {
		cells := make([]stepCell, batchInputs*group)
		for i := range cells {
			s := data[i%len(data)]
			a := m.Generate(s.O0, policy.GenOptions{Augmented: true})
			_, corr := m.Teach(s.O0)
			r := reward(i, paysThink)
			switch i % 3 {
			case 0: // generic prompt
				cells[i] = fixedCell(policy.Episode{Rollout: a.Rollout}, r, credit{c: answer, r: a.Rollout})
			case 1: // diagnosed, no correction ran
				cells[i] = fixedCell(policy.Episode{Rollout: a.Rollout, Diag: a.Diag}, r,
					credit{c: attempt, r: a.Rollout}, credit{c: think, d: a.Diag})
			case 2: // diagnosed and corrected
				cells[i] = fixedCell(policy.Episode{Rollout: a.Rollout, Diag: a.Diag, Correction: corr}, r,
					credit{c: answer, r: corr}, credit{c: attempt, r: a.Rollout}, credit{c: think, d: a.Diag})
			}
		}
		return cells
	}
	for _, tc := range []struct {
		name  string
		build func() (lin *policy.Linear, diag *policy.DiagHead, cells []stepCell)
	}{
		{"token", func() (*policy.Linear, *policy.DiagHead, []stepCell) {
			m := policy.New(policy.CapQwen3B, 3)
			return &m.Linear, m.Diag, tokenCells(m, true)
		}},
		{"think-zero", func() (*policy.Linear, *policy.DiagHead, []stepCell) {
			m := policy.New(policy.CapQwen3B, 3)
			return &m.Linear, m.Diag, tokenCells(m, false)
		}},
		{"sequence", func() (*policy.Linear, *policy.DiagHead, []stepCell) {
			m := seqopt.NewModel(3)
			cells := make([]stepCell, batchInputs*group)
			for i := range cells {
				ep := m.Generate(data[i%len(data)].O0, rand.New(rand.NewSource(int64(i))))
				cells[i] = fixedCell(policy.Episode{Rollout: ep.Rollout}, [components]float64{float64(i * 5 % 7)},
					credit{c: answer, r: ep.Rollout})
			}
			return &m.Linear, nil, cells
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lin, diag, cells := tc.build()
			var rewards [components][]float64
			tokens, mean := 0, 0.0
			for _, cell := range cells {
				for c, r := range cell.es.r {
					rewards[c] = append(rewards[c], r)
				}
				tokens += tokensOf(&cell.es.ep)
				mean += cell.es.r[answer] + cell.es.r[think]
			}
			var adv [components][]float64
			for c := range adv {
				adv[c] = advantages(rewards[c], group, false, func(v *float64) float64 { return *v })
			}
			g := lin.Grad()
			var gd [][]float64
			if diag != nil {
				gd = snapshot(diag.W)
				for _, row := range gd {
					clear(row)
				}
			}
			for i, cell := range cells {
				for _, cr := range cell.credits {
					scale := adv[cr.c][i] / float64(tokens)
					if cr.d != nil {
						diag.AddGrad(gd, cr.d.Features, int(cr.d.PredictedClass), scale)
					} else {
						lin.AddGrad(g, cr.r, scale)
					}
				}
			}
			params := [][]float64{lin.B, lin.S, lin.P}
			grads := [][]float64{g.B, g.S, g.P}
			if diag != nil {
				params, grads = append(params, diag.W...), append(grads, gd...)
			}
			want := snapshot(params)
			for k, vs := range want {
				for j := range vs {
					vs[j] += grads[k][j]
				}
			}

			next := 0
			tr := &Trainer{cfg: Config{GroupSize: group, LR: 1, Workers: 1}, data: data, lin: lin, diag: diag}
			tr.rollouts = func(context.Context, *dataset.Sample) func(*rand.Rand) episodeScore {
				return func(*rand.Rand) episodeScore { next++; return cells[next-1].es }
			}
			stepBg(tr.StepCtx)
			if got := tr.RewardHistory[0]; got != mean/float64(len(cells)) {
				t.Errorf("mean reward %v, want %v", got, mean/float64(len(cells)))
			}
			for k, vs := range want {
				for j, v := range vs {
					if params[k][j] != v {
						t.Fatalf("parameter vector %d entry %d moved to %v, want %v", k, j, params[k][j], v)
					}
				}
			}
		})
	}
}
