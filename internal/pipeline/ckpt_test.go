package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ckpt"
	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/policy"
)

func resumeCorpus(t *testing.T) []*dataset.Sample {
	t.Helper()
	samples, err := dataset.Generate(dataset.Config{Seed: 11, N: 48})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func resumeStageConfig(dir string) StageConfig {
	cfg := DefaultStageConfig()
	cfg.Stage1Steps = 4
	cfg.SFT.Epochs = 2
	cfg.Stage2Steps = 10
	cfg.Stage3Steps = 8
	cfg.GRPO.Workers = 2
	if dir != "" {
		cfg.Ckpt = &CkptConfig{Dir: dir, Resume: true}
	}
	return cfg
}

// cancelAfter wraps an oracle so the nth verification query pulls the
// plug — a deterministic stand-in for SIGKILL landing mid-training.
func cancelAfter(n int64, cancel context.CancelFunc, inner oracle.Oracle) oracle.Oracle {
	var count atomic.Int64
	return oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		if count.Add(1) == n {
			cancel()
		}
		return inner.Verify(ctx, src, tgt, opts)
	})
}

func latencyBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	if res.Latency == nil {
		t.Fatal("run finished without a Model-Latency policy")
	}
	blob, err := json.Marshal(res.Latency)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// requireSameRun fails unless got ended where the uninterrupted run
// want did: the same Model-Latency bytes and, since the full trajectory
// must match and not just the endpoint, the same three reward histories.
func requireSameRun(t *testing.T, want, got *Result) {
	t.Helper()
	if !bytes.Equal(latencyBytes(t, want), latencyBytes(t, got)) {
		t.Fatal("resumed Model-Latency bytes differ from the uninterrupted run")
	}
	for name, pair := range map[string][2][]float64{
		"zero":        {want.ZeroHistory, got.ZeroHistory},
		"correctness": {want.CorrectnessHistory, got.CorrectnessHistory},
		"latency":     {want.LatencyHistory, got.LatencyHistory},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s history lengths differ: %d vs %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s history step %d differs: %v vs %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestParentCheckpointResumes resumes checkpoints earlier trees wrote
// (testdata/parent-ckpt). Two come from the last tree that snapshotted
// trainers mid-stage (writer_test.go.txt there), whose signature still
// spells alive.Options' FreshSolver: one taken inside model-correctness,
// with a trainer snapshot and a dev-selected best, and one taken at the
// model-latency boundary. The third, boundary-no-fresh-solver
// (boundary_writer_test.go.txt), is taken at the same boundary by the
// last tree whose signature was %+v of StageConfig. Each must finish on
// the uninterrupted run's Model-Latency bytes and all three reward
// histories.
func TestParentCheckpointResumes(t *testing.T) {
	train := resumeCorpus(t)
	ref := resumeStageConfig("")
	want, err := RunCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mid-stage", "boundary", "boundary-no-fresh-solver"} {
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "parent-ckpt", name, ckptFileName))
			if err != nil {
				t.Fatal(err)
			}
			// Resuming rewrites the checkpoint: work on a copy.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ckptFileName), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := resumeStageConfig(dir)
			got, err := RunCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, want, got)
		})
	}
}

// The signatures the last tree whose signature was %+v of StageConfig
// wrote for DefaultStageConfig() and for resumeStageConfig, both over a
// 48-sample corpus.
const (
	parentDefaultSig = "{Capacity:{Name:Qwen-3B HashFeatures:4 NoiseScale:1.2 MaxSteps:24 MaxBias:1.5} Seed:1 Stage1Steps:10 WarmupEpochs:3 Stage2Steps:120 Stage3Steps:80 GRPO:{GroupSize:6 BatchInputs:8 LR:30 ClipNorm:5 Temperature:1 Mode:0 Augmented:false Latency:{UMax:0 Gamma:0} Verify:{MaxPaths:256 MaxSteps:2048 SolverBudget:40000} SeqLevelNorm:false NoGroupBaseline:false NoBleuShaping:false Workers:0} SFT:{Epochs:3 LR:0.35} UMaxPercentile:80 Gamma:2 Workers:0 Oracle:<nil> Obs:<nil> Ckpt:<nil>}|corpus=48"
	parentResumeSig  = "{Capacity:{Name:Qwen-3B HashFeatures:4 NoiseScale:1.2 MaxSteps:24 MaxBias:1.5} Seed:1 Stage1Steps:4 WarmupEpochs:2 Stage2Steps:10 Stage3Steps:8 GRPO:{GroupSize:6 BatchInputs:8 LR:30 ClipNorm:5 Temperature:1 Mode:0 Augmented:false Latency:{UMax:0 Gamma:0} Verify:{MaxPaths:256 MaxSteps:2048 SolverBudget:40000} SeqLevelNorm:false NoGroupBaseline:false NoBleuShaping:false Workers:0} SFT:{Epochs:3 LR:0.35} UMaxPercentile:80 Gamma:2 Workers:0 Oracle:<nil> Obs:<nil> Ckpt:<nil>}|corpus=48"
)

// TestConfigSigMatchesParent: a checkpoint's signature keeps the bytes
// the parent wrote, so every checkpoint it left still resumes.
func TestConfigSigMatchesParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  StageConfig
		want string
	}{
		{"default", DefaultStageConfig(), parentDefaultSig},
		{"resume", resumeStageConfig(t.TempDir()), parentResumeSig},
	} {
		if got := configSig(tc.cfg, 48, false); got != tc.want {
			t.Errorf("%s signature:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// trajectoryFree are the StageConfig fields a curriculum's trajectory
// does not read, so its checkpoint signature does not either: the
// process-local Obs and Ckpt, the worker count (results are
// bit-identical at any), and the reward settings RunCtx overwrites per
// stage.
var trajectoryFree = map[string]bool{
	"Obs": true, "Ckpt": true,
	"GRPO.Workers": true, "GRPO.Mode": true, "GRPO.UMax": true,
}

// leafFields returns the dotted path of every field under t that is not
// itself a struct (pointers and interfaces are leaves).
func leafFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, prefix+f.Name+".")...)
		} else {
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// perturb sets the leaf field at path in cfg to a value different from
// the one it holds.
func perturb(t *testing.T, cfg *StageConfig, path string) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		v.Set(reflect.ValueOf(oracle.Func(nil)))
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}

// TestConfigSigCoversStageConfig: every leaf field of StageConfig is
// either signed, so that changing it changes the signature, or on the
// trajectory-free list, so that changing it does not.
func TestConfigSigCoversStageConfig(t *testing.T) {
	base := DefaultStageConfig()
	sig := configSig(base, 48, false)
	leaves := map[string]bool{}
	for _, path := range leafFields(reflect.TypeOf(base), "") {
		leaves[path] = true
		cfg := base
		perturb(t, &cfg, path)
		switch changed := configSig(cfg, 48, false) != sig; {
		case trajectoryFree[path] && changed:
			t.Errorf("%s is trajectory-free, but changing it changed the signature", path)
		case !trajectoryFree[path] && !changed:
			t.Errorf("%s is neither in the signature nor on the trajectory-free list", path)
		}
	}
	for path := range trajectoryFree {
		if !leaves[path] {
			t.Errorf("trajectory-free %s is not a field of StageConfig", path)
		}
	}
}

// TestResumeSmoke is the durable-runs acceptance gate (also wired as
// `make resume-smoke`): train, kill mid-run via context cancel after
// a checkpoint has been written, resume twice, and require the final
// Model-Latency bytes to equal an uninterrupted run's.
func TestResumeSmoke(t *testing.T) {
	train := resumeCorpus(t)
	dir := t.TempDir()

	// Reference trajectory: one uninterrupted run, no checkpointing.
	ref := resumeStageConfig("")
	wantRes, err := RunCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := latencyBytes(t, wantRes)

	// Interrupted runs: cancel mid-stage, then resume, which replays
	// the interrupted stage from its start. At this configuration
	// model-zero asks 121 queries, warm-up none, model-correctness 678
	// and model-latency 293, so the first kill lands inside
	// model-correctness and the second, counted from the resume into
	// model-correctness, inside model-latency: each segment completes
	// at least one boundary, and the checkpoint it leaves must name a
	// later stage than the one it started from. Varying Workers across
	// the segments exercises the worker-count-independence of the
	// checkpoint fingerprint and of the resumed trajectory itself.
	stage := 0
	for i, kill := range []int64{260, 820} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := resumeStageConfig(dir)
		cfg.GRPO.Workers = 2 + 2*i
		_, err := RunCtx(ctx, cancelAfter(kill, cancel, oracle.NewStack(oracle.Config{})), train, cfg)
		cancel()
		if err == nil {
			t.Fatalf("run with kill after %d queries finished uninterrupted — raise the step counts", kill)
		}
		var st curriculumState
		if err := ckpt.Load(filepath.Join(dir, ckptFileName), ckptKind, &st); err != nil {
			t.Fatalf("no checkpoint after interrupt at %d queries: %v", kill, err)
		}
		if st.Stage <= stage {
			t.Fatalf("interrupt at %d queries left the checkpoint at %s, started from %s: the segment completed no boundary",
				kill, stages[st.Stage], stages[stage])
		}
		stage = st.Stage
	}

	// Final resume runs to completion at yet another worker count.
	cfg := resumeStageConfig(dir)
	cfg.GRPO.Workers = 3
	gotRes, err := RunCtx(context.Background(), oracle.NewStack(oracle.Config{}), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, wantRes, gotRes)

	// A completed run resumes without touching the oracle at all.
	cfg = resumeStageConfig(dir)
	silent := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		t.Error("resume of a finished run issued a verification query")
		return alive.Result{Verdict: alive.Inconclusive}
	})
	doneRes, err := RunCtx(context.Background(), silent, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, latencyBytes(t, doneRes)) {
		t.Fatal("reloading a finished run changed the Model-Latency bytes")
	}
}

func TestCkptRefusesOverwriteAndConfigDrift(t *testing.T) {
	train := resumeCorpus(t)
	dir := t.TempDir()

	// Seed a checkpoint by interrupting a run inside model-correctness,
	// past the warm-up boundary (see TestResumeSmoke's query counts).
	ctx, cancel := context.WithCancel(context.Background())
	cfg := resumeStageConfig(dir)
	if _, err := RunCtx(ctx, cancelAfter(260, cancel, oracle.NewStack(oracle.Config{})), train, cfg); err == nil {
		t.Fatal("expected interrupt")
	}
	cancel()

	// Without Resume, an existing checkpoint must refuse to run.
	cfg = resumeStageConfig(dir)
	cfg.Ckpt.Resume = false
	if _, err := RunCtx(context.Background(), testStack, train, cfg); err == nil {
		t.Fatal("existing checkpoint was silently overwritten")
	}

	// A different training configuration must refuse to resume.
	cfg = resumeStageConfig(dir)
	cfg.Seed = 999
	if _, err := RunCtx(context.Background(), testStack, train, cfg); err == nil {
		t.Fatal("checkpoint resumed under a different configuration")
	}
}

// TestResumeRejectsUnknownFailureSample: harvested failures are
// stored by sample name, so a checkpoint naming a sample the corpus
// does not hold belongs to another run and must refuse to resume,
// saying which sample it is.
func TestResumeRejectsUnknownFailureSample(t *testing.T) {
	train := resumeCorpus(t)
	dir := t.TempDir()
	cfg := resumeStageConfig(dir)
	st := &curriculumState{
		ConfigSig: configSig(cfg, len(train), false),
		Stage:     1, // warm-up
		Result:    &Result{ModelZero: policy.New(policy.CapQwen3B, cfg.Seed)},
		Failures:  []failureState{{Sample: "no-such-sample"}},
	}
	if err := ckpt.Save(filepath.Join(dir, ckptFileName), ckptKind, st); err != nil {
		t.Fatal(err)
	}
	silent := oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		t.Error("a refused resume issued a verification query")
		return alive.Result{Verdict: alive.Inconclusive}
	})
	_, err := RunCtx(context.Background(), silent, train, cfg)
	if err == nil || !strings.Contains(err.Error(), "no-such-sample") {
		t.Fatalf("resume error = %v, want one naming the unknown sample", err)
	}
}

// TestCkptStateRoundTrip checks the durable curriculum encoding alone
// (no training): models, histories, failures, and scalars survive a
// Save/Load cycle byte-exactly.
func TestCkptStateRoundTrip(t *testing.T) {
	train := resumeCorpus(t)
	path := filepath.Join(t.TempDir(), ckptFileName)

	m := policy.New(policy.CapQwen3B, 3)
	in := &curriculumState{
		ConfigSig: "sig",
		Stage:     2, // model-correctness
		Result:    &Result{ModelZero: m, WarmUp: m, ZeroHistory: []float64{0.25, 0.5}, UMax: 3.5},
		Failures: []failureState{{
			Sample: train[0].Name, AttemptText: "x", TrueDiag: "ERROR: Value mismatch", TrueClass: 2,
		}},
	}
	if err := ckpt.Save(path, ckptKind, in); err != nil {
		t.Fatal(err)
	}
	out := &curriculumState{}
	if err := ckpt.Load(path, ckptKind, out); err != nil {
		t.Fatal(err)
	}
	if out.Stage != in.Stage || out.ConfigSig != in.ConfigSig || out.UMax != in.UMax ||
		len(out.Failures) != 1 || out.Failures[0].Sample != train[0].Name ||
		out.Correctness != nil {
		t.Fatalf("state round trip mismatch: %+v", out)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(out.ModelZero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, back) {
		t.Fatal("model bytes changed across the state round trip")
	}
}

// traceStep is the part of a trace event that does not vary from run
// to run: no times, and no verdict, cache or reward sections.
type traceStep struct {
	Kind, Stage string
	Steps       int
	Note        string
}

// tracedRun runs the curriculum with a recorder and returns what it
// traced, each event reduced to a traceStep.
func tracedRun(t *testing.T, ctx context.Context, o oracle.Oracle, train []*dataset.Sample, dir string) ([]traceStep, *Result, error) {
	t.Helper()
	var buf bytes.Buffer
	cfg := resumeStageConfig(dir)
	cfg.Obs = obs.New(&buf)
	res, err := RunCtx(ctx, o, train, cfg)
	var out []traceStep
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		out = append(out, traceStep{ev.Kind, ev.Stage, ev.Steps, ev.Note})
	}
	return out, res, err
}

// TestCurriculumTrace pins what a checkpointed curriculum writes to
// its trace: one stage_start/stage_end pair per stage and a checkpoint
// event naming the next stage at every boundary, a canceled stage's
// stage_end with the steps it completed and the note "canceled", and a
// resume's "resumed" event naming the stage it replays.
func TestCurriculumTrace(t *testing.T) {
	train := resumeCorpus(t)
	const warmSteps = 358 // behaviour-cloning steps of the warm-up
	zero := []traceStep{
		{"stage_start", "model-zero", 0, ""},
		{"stage_end", "model-zero", 4, ""},
		{"checkpoint", "warm-up", 0, "stage boundary"},
		{"stage_start", "warm-up", 0, ""},
		{"stage_end", "warm-up", warmSteps, ""},
		{"checkpoint", "model-correctness", 0, "stage boundary"},
		{"stage_start", "model-correctness", 0, ""},
	}
	rest := []traceStep{
		{"stage_end", "model-correctness", 10, ""},
		{"checkpoint", "model-latency", 0, "stage boundary"},
		{"stage_start", "model-latency", 0, ""},
		{"stage_end", "model-latency", 8, ""},
		{"checkpoint", "done", 0, "stage boundary"},
	}
	full := append(append([]traceStep(nil), zero...), rest...)
	got, _, err := tracedRun(t, context.Background(), oracle.NewStack(oracle.Config{}), train, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("uninterrupted trace:\n got %v\nwant %v", got, full)
	}

	// Killed inside model-correctness (see TestResumeSmoke's query
	// counts): the stage ends canceled after the steps it completed.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	got, res, err := tracedRun(t, ctx, cancelAfter(260, cancel, oracle.NewStack(oracle.Config{})), train, dir)
	cancel()
	if err == nil {
		t.Fatal("run killed inside model-correctness finished")
	}
	const doneSteps = 1
	if len(res.CorrectnessHistory) != doneSteps {
		t.Fatalf("canceled model-correctness kept %d steps, want %d", len(res.CorrectnessHistory), doneSteps)
	}
	canceled := append(append([]traceStep(nil), zero...), traceStep{"stage_end", "model-correctness", doneSteps, "canceled"})
	if !reflect.DeepEqual(got, canceled) {
		t.Fatalf("canceled trace:\n got %v\nwant %v", got, canceled)
	}

	// The resume names the stage it replays, then runs it and the rest.
	got, _, err = tracedRun(t, context.Background(), oracle.NewStack(oracle.Config{}), train, dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := append([]traceStep{
		{"checkpoint", "model-correctness", 0, "resumed"},
		{"stage_start", "model-correctness", 0, ""},
	}, rest...)
	if !reflect.DeepEqual(got, resumed) {
		t.Fatalf("resumed trace:\n got %v\nwant %v", got, resumed)
	}
}

// TestCkptPayloadKeys: a checkpoint's payload is the Result under its
// JSON names plus what a resume needs, and nothing else: neither the
// Base model nor whole FailureSamples leak in through the embedding.
func TestCkptPayloadKeys(t *testing.T) {
	train := resumeCorpus(t)
	m := policy.New(policy.CapQwen3B, 3)
	ck, err := newCkptRunner(resumeStageConfig(t.TempDir()), train)
	if err != nil {
		t.Fatal(err)
	}
	*ck.state.Result = Result{
		Base: m, ModelZero: m, WarmUp: m, Correctness: m, Latency: m,
		ZeroHistory: []float64{1}, CorrectnessHistory: []float64{2}, LatencyHistory: []float64{3},
		Failures: []*grpo.FailureSample{{Sample: train[0], AttemptText: "x", TrueClass: 2}},
		UMax:     3.5,
	}
	if err := ck.boundary(len(stages) - 1); err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := ckpt.Load(ck.path, ckptKind, &payload); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range payload {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"config_sig", "correctness", "correctness_history", "failures", "latency", "latency_history",
		"model_zero", "stage", "umax", "warm_up", "zero_history"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("payload keys %v, want %v", keys, want)
	}
	fails, err := json.Marshal([]failureState{{Sample: train[0].Name, AttemptText: "x", TrueClass: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload["failures"], fails) {
		t.Fatalf("failures %s, want the failureStates %s", payload["failures"], fails)
	}
}
