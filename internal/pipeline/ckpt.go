package pipeline

import (
	"fmt"
	"os"
	"path/filepath"

	"veriopt/internal/ckpt"
	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/obs"
	"veriopt/internal/policy"
)

// CkptConfig makes a curriculum run durable: RunCtx writes an atomic
// checkpoint into Dir at every stage boundary and — with Resume —
// continues an interrupted run from the last one. A checkpoint is a
// stage boundary: a resumed run replays the interrupted stage from its
// start, and still ends bit-identical to an uninterrupted run, because
// every episode's RNG derives from (seed, corpus cursor, group index),
// each stage builds a fresh trainer from the previous stage's model,
// and dev selection restarts with the stage.
type CkptConfig struct {
	// Dir is the checkpoint directory ("" disables checkpointing).
	Dir string
	// Resume loads an existing checkpoint in Dir and continues it.
	// Without Resume, an existing checkpoint is an error — a run never
	// silently overwrites durable state it did not write.
	Resume bool
}

const (
	ckptFileName = "curriculum.ckpt"
	ckptKind     = "curriculum"
)

// stages names the curriculum's stages in execution order, and then
// "done". A checkpoint's Stage indexes it: the first stage that has
// not completed yet.
var stages = [...]string{"model-zero", "warm-up", "model-correctness", "model-latency", "done"}

// curriculumState is the durable form of a curriculum run: the Result
// itself, whose Base is rebuilt from (Capacity, Seed) and whose
// failures are stored by sample name, plus what a resume checks and
// where it continues. A checkpoint written by a tree that still
// snapshotted trainers mid-stage also carries "trainer" and "best"
// fields, and one written before the warm-up's statistics were dropped
// carries "sft_stats"; decoding ignores them, and the stage it names
// replays.
type curriculumState struct {
	// ConfigSig fingerprints the run configuration; resume refuses a
	// checkpoint written under a different one (the determinism
	// guarantee would be silently void).
	ConfigSig string `json:"config_sig"`
	// Stage is the first stage not yet completed, an index into stages.
	Stage int `json:"stage"`
	*Result
	Failures []failureState `json:"failures,omitempty"`
}

// failureState is the durable form of a grpo.FailureSample. The sample
// is referenced by name — the corpus is regenerated deterministically
// from its seed on resume, so the name re-links to the identical
// sample without serializing IR.
type failureState struct {
	Sample    string   `json:"sample"`
	TrueDiag  string   `json:"true_diag,omitempty"`
	TrueClass int      `json:"true_class"`
	UsedRules []string `json:"used_rules,omitempty"`
}

func suspendFailures(fails []*grpo.FailureSample) []failureState {
	out := make([]failureState, 0, len(fails))
	for _, f := range fails {
		out = append(out, failureState{
			Sample:    f.Sample.Name,
			TrueDiag:  f.TrueDiag,
			TrueClass: int(f.TrueClass),
			UsedRules: append([]string(nil), f.UsedRules...),
		})
	}
	return out
}

// resumeFailures re-links durable failures against the corpus, failing
// loudly when a referenced sample is missing (the corpus seed or size
// changed — the checkpoint belongs to a different run).
func resumeFailures(states []failureState, data []*dataset.Sample) ([]*grpo.FailureSample, error) {
	if len(states) == 0 {
		return nil, nil
	}
	byName := make(map[string]*dataset.Sample, len(data))
	for _, s := range data {
		byName[s.Name] = s
	}
	out := make([]*grpo.FailureSample, 0, len(states))
	for _, st := range states {
		s, ok := byName[st.Sample]
		if !ok {
			return nil, fmt.Errorf("pipeline: checkpointed failure references unknown sample %q (corpus changed?)", st.Sample)
		}
		out = append(out, &grpo.FailureSample{
			Sample:    s,
			TrueDiag:  st.TrueDiag,
			TrueClass: policy.DiagClass(st.TrueClass),
			UsedRules: append([]string(nil), st.UsedRules...),
		})
	}
	return out, nil
}

// configSig fingerprints what a curriculum's trajectory reads off cfg,
// each value under a fixed name, and the corpus size. It leaves out
// what changes no result: Obs, Ckpt, the worker count, and the GRPO
// Mode and UMax that RunCtx sets per stage. Names, order and
// one-valued slots are those of the struct dump it used to be, so
// checkpoints written under that still resume: Augmented:false and
// Oracle:<nil> are such slots, for fields since deleted, and so are the
// settings since made constants, which it prints as those constants
// read (the capacity RunCtx trains, grpo's batch shape and verifier
// bounds, the sampling temperature 1, the warm-up's learning rate, Eqs. 3–4's
// percentile and γ); freshSolver spells Verify as it was while
// alive.Options had FreshSolver.
func configSig(cfg StageConfig, corpusLen int, freshSolver bool) string {
	c, g := policy.CapQwen3B, cfg.GRPO
	fresh := ""
	if freshSolver {
		fresh = " FreshSolver:false"
	}
	// The WarmupEpochs slot holds the epochs; SFT's Epochs slot holds
	// the default they overrode when both were fields.
	return fmt.Sprintf("{Capacity:{Name:%v HashFeatures:%v NoiseScale:%v MaxSteps:%v MaxBias:%v}"+
		" Seed:%v Stage1Steps:%v WarmupEpochs:%v Stage2Steps:%v Stage3Steps:%v"+
		" GRPO:{GroupSize:%v BatchInputs:8 LR:%v ClipNorm:%v Temperature:1 Mode:0 Augmented:false Latency:{UMax:0 Gamma:0}"+
		" Verify:{MaxPaths:256 MaxSteps:2048 SolverBudget:40000%s} SeqLevelNorm:%v NoGroupBaseline:%v NoBleuShaping:%v Workers:0}"+
		" SFT:{Epochs:3 LR:0.35} UMaxPercentile:80 Gamma:2 Workers:0 Oracle:<nil> Obs:<nil> Ckpt:<nil>}|corpus=%d",
		c.Name, c.HashFeatures, c.NoiseScale, c.MaxSteps, c.MaxBias,
		cfg.Seed, cfg.Stage1Steps, cfg.WarmupEpochs, cfg.Stage2Steps, cfg.Stage3Steps,
		g.GroupSize, g.LR, g.ClipNorm,
		fresh, g.SeqLevelNorm, g.NoGroupBaseline, g.NoBleuShaping, corpusLen)
}

// ckptRunner owns the durable state of one RunCtx invocation. A
// runner with no path is inert: a boundary only advances the
// in-memory stage. Always non-nil so RunCtx never branches on it.
type ckptRunner struct {
	rec   *obs.Recorder
	path  string
	state *curriculumState
}

// newCkptRunner builds the runner for cfg, loading existing durable
// state when resuming.
func newCkptRunner(cfg StageConfig, train []*dataset.Sample) (*ckptRunner, error) {
	r := &ckptRunner{rec: cfg.Obs, state: &curriculumState{Result: &Result{}}}
	if cfg.Ckpt == nil || cfg.Ckpt.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.Ckpt.Dir, 0o755); err != nil {
		return nil, err
	}
	r.path = filepath.Join(cfg.Ckpt.Dir, ckptFileName)
	sig := configSig(cfg, len(train), false)
	if !ckpt.Exists(r.path) {
		r.state.ConfigSig = sig
		return r, nil
	}
	if !cfg.Ckpt.Resume {
		return nil, fmt.Errorf("pipeline: checkpoint already exists at %s (resume it, or remove the directory to start over)", r.path)
	}
	if err := ckpt.Load(r.path, ckptKind, r.state); err != nil {
		return nil, err
	}
	if got := r.state.ConfigSig; got != sig && got != configSig(cfg, len(train), true) {
		return nil, fmt.Errorf("pipeline: checkpoint at %s was written under a different configuration; resuming it would not reproduce the original trajectory", r.path)
	}
	r.rec.Emit(obs.Event{Kind: "checkpoint", Stage: stages[r.state.Stage], Note: "resumed"})
	return r, nil
}

// boundary records a completed stage: next becomes the first
// unfinished stage, and the whole curriculum state is written
// atomically.
func (r *ckptRunner) boundary(next int) error {
	st := r.state
	st.Stage = next
	if r.path == "" {
		return nil
	}
	st.Failures = suspendFailures(st.Result.Failures)
	if err := ckpt.Save(r.path, ckptKind, st); err != nil {
		return fmt.Errorf("pipeline: write checkpoint: %w", err)
	}
	r.rec.Emit(obs.Event{Kind: "checkpoint", Stage: stages[next], Note: "stage boundary"})
	return nil
}
