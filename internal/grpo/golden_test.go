package grpo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"veriopt/internal/oracle"
	"veriopt/internal/policy"
	"veriopt/internal/seqopt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*_golden.json from this tree's trainers")

// trajectory is one training run's fingerprint, over float64 bits so
// a last-ulp difference shows: Params is the sha256 of every model
// parameter in declaration order, Rewards and GradNorms are the
// per-step values in hex (the first differing index is the step that
// diverged).
type trajectory struct {
	Params    string   `json:"params"`
	Rewards   []string `json:"rewards"`
	GradNorms []string `json:"grad_norms"`
	Failures  int      `json:"failures,omitempty"`
}

func bitsOf(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

func paramDigest(vecs ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, vs := range vecs {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

const goldenSteps = 12

// textTrajectory trains the text policy for goldenSteps under the
// reward mode and ablations set writes into DefaultConfig. The
// self-correction gate is opened by hand for the CoT mode (the warm-up,
// which normally opens it, is pipeline's, which imports this package)
// so the correction rollout and the diagnosis gradient are on the
// trajectory.
func textTrajectory(t *testing.T, set func(*Config), workers int) trajectory {
	t.Helper()
	data := corpus(t, 24)
	m := policy.New(policy.CapQwen3B, 7)
	cfg := DefaultConfig()
	cfg.Workers = workers
	set(&cfg)
	mode := cfg.Mode
	switch mode {
	case ModeCorrectnessCoT:
		m.SelfCorrectGate = 2
	case ModeLatency:
		cfg.UMax = ComputeUMax(data)
	}
	tr := NewTrainer(oracle.NewStack(oracle.Config{}), m, data, cfg, 21)
	tr.CollectFailures = mode == ModeCorrectness
	norms := stepNorms(tr.StepCtx)
	vecs := [][]float64{m.B, m.S, m.P}
	vecs = append(vecs, m.N...)
	vecs = append(vecs, m.Diag.W...)
	vecs = append(vecs, m.Diag.Sub...)
	return trajectory{Params: paramDigest(vecs...), Rewards: bitsOf(tr.RewardHistory),
		GradNorms: bitsOf(norms), Failures: len(tr.Failures)}
}

// seqTrajectory trains the sequence policy for goldenSteps. The
// learning rate is a tenth of seqLR so the policy stays stochastic (and
// the gradient non-zero) for the whole run.
func seqTrajectory(t *testing.T, workers int) trajectory {
	t.Helper()
	m := seqopt.NewModel(5)
	tr := NewSequenceTrainer(oracle.NewStack(oracle.Config{}), m, seqCorpus(t, 24), 0, workers, 23)
	tr.cfg.LR = seqLR / 10
	norms := stepNorms(tr.StepCtx)
	vecs := [][]float64{m.B, m.S}
	vecs = append(vecs, m.N...)
	return trajectory{Params: paramDigest(vecs...), Rewards: bitsOf(tr.RewardHistory), GradNorms: bitsOf(norms)}
}

// stepNorms runs goldenSteps steps and returns each one's pre-clip
// gradient norm.
func stepNorms(stepCtx func(context.Context) (float64, error)) []float64 {
	norms := make([]float64, goldenSteps)
	for i := range norms {
		norms[i] = stepBg(stepCtx)
	}
	return norms
}

func checkGolden(t *testing.T, path string, got map[string]trajectory) {
	t.Helper()
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]trajectory
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d trajectories, ran %d", len(want), len(got))
	}
	for name, g := range got {
		if !reflect.DeepEqual(g, want[name]) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, want[name])
		}
	}
}

// TestTextTrajectoriesMatchGolden pins the token policy's training bit
// for bit in all three reward modes, and in the CoT mode under each of
// the three GRPO ablations (per-sequence normalization, raw rewards,
// no BLEU shaping), at Workers 1 and 4. The three reward-mode entries
// were written by this test (-update) at the commit before the policy
// scorer and the rollout grid were factored into policy.Linear and
// grpo's rollout core, and have not been rewritten since; the three
// ablation entries were captured the same way at the commit before the
// step's reward components became one array under one credit rule. A change to sampling order, gradient
// accumulation order, the norm walk or the clamp shows as a diff
// against those commits.
func TestTextTrajectoriesMatchGolden(t *testing.T) {
	got := map[string]trajectory{}
	for name, set := range map[string]func(*Config){
		"correctness":                       func(c *Config) { c.Mode = ModeCorrectness },
		"correctness-cot":                   func(c *Config) { c.Mode = ModeCorrectnessCoT },
		"latency":                           func(c *Config) { c.Mode = ModeLatency },
		"correctness-cot-seq-level-norm":    func(c *Config) { c.Mode, c.SeqLevelNorm = ModeCorrectnessCoT, true },
		"correctness-cot-no-group-baseline": func(c *Config) { c.Mode, c.NoGroupBaseline = ModeCorrectnessCoT, true },
		"correctness-cot-no-bleu-shaping":   func(c *Config) { c.Mode, c.NoBleuShaping = ModeCorrectnessCoT, true },
	} {
		got[name] = textTrajectory(t, set, 1)
		if w4 := textTrajectory(t, set, 4); !reflect.DeepEqual(got[name], w4) {
			t.Errorf("%s: Workers=4 trajectory differs from Workers=1:\n w1 %+v\n w4 %+v", name, got[name], w4)
		}
	}
	checkGolden(t, "testdata/text_golden.json", got)
}

// TestSeqTrajectoryMatchesGolden is the same pin for the sequence
// policy, trained by NewSequenceTrainer's Trainer. Its golden was re-captured once, at the refactor itself:
// against the parent's capture, parameters and rewards are bit-equal
// and two of the twelve GradNorms differ in the last ulp, because the
// parent summed the pre-clip norm as Σ_a(b_a² + s_a²) and the shared
// policy.Linear.ClipStep sums vector by vector (all of B, then all of
// S) as the token policy's update always has.
func TestSeqTrajectoryMatchesGolden(t *testing.T) {
	got := map[string]trajectory{"passes": seqTrajectory(t, 1)}
	if w4 := seqTrajectory(t, 4); !reflect.DeepEqual(got["passes"], w4) {
		t.Errorf("Workers=4 trajectory differs from Workers=1:\n w1 %+v\n w4 %+v", got["passes"], w4)
	}
	checkGolden(t, "testdata/seq_golden.json", got)
}
