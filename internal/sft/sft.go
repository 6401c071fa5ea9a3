// Package sft implements the supervised warm-up stage (Fig. 3,
// "Warm-up Model"): behaviour cloning on diagnostic-augmented samples
// harvested from Model Zero's GRPO failures, plus the original
// (O0, instcombine) pairs. The warm-up gives the policy a teacher
// prior over sound actions, gives the diagnostic head its rudimentary
// error-recognition ability, and enables the self-correction gate —
// the "externally provided chain of thought" of the paper's
// discussion section.
package sft

import (
	"context"

	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
	"veriopt/internal/rewrite"
)

// Config controls warm-up training.
type Config struct {
	// Epochs over the sample set.
	Epochs int
}

// DefaultConfig matches the reproduction's runs.
func DefaultConfig() Config { return Config{Epochs: 3} }

// lr is the supervised learning rate of every warm-up.
const lr = 0.35

// teacherTrajectory computes the sound-action sequence that rewrites
// the O0 function toward the instcombine reference: at each state the
// first applicable sound rule, then STOP. Returns the per-step
// (candidates, chosen) records plus the text the trajectory reaches.
func teacherTrajectory(m *policy.Model, input *ir.Function) ([]policy.ActionRecord, string) {
	work := ir.CloneFunc(input)
	var recs []policy.ActionRecord
	for t := 0; t < m.Cap.MaxSteps; t++ {
		stepFrac := float64(t) / float64(m.Cap.MaxSteps)
		cands, wf := m.Available(work, nil)
		// Teacher: the first applicable *real* sound rule (the cosmetic
		// reorder optimizes nothing and is not taught), else STOP.
		choice := -1
		for i, a := range cands {
			if a < len(m.Rules) && m.Rules[a].Kind == rewrite.KindSound &&
				m.Rules[a].Name != "cosmetic-reorder" {
				choice = i
				break
			}
		}
		if choice == -1 {
			for i, a := range cands {
				if a == m.ActStop() {
					choice = i
				}
			}
			recs = append(recs, policy.ActionRecord{Cands: cands, StepFrac: stepFrac, Work: wf, Chosen: choice})
			return recs, ir.CanonicalText(work)
		}
		recs = append(recs, policy.ActionRecord{Cands: cands, StepFrac: stepFrac, Work: wf, Chosen: choice})
		m.Rules[cands[choice]].Apply(work, nil)
	}
	return recs, ir.CanonicalText(work)
}

// Stats summarizes a warm-up run.
type Stats struct {
	// CloneSteps is the number of behaviour-cloning gradient steps.
	CloneSteps int
}

// WarmUpCtx runs the supervised stage on the model in place: behaviour
// cloning of first-time samples (teacher trajectories toward the
// instcombine label) and diagnostic training from correction-augmented
// samples (Model Zero failures with their true verifier feedback). The
// context is polled once per sample, so a SIGINT mid-warm-up returns
// within one teacher trajectory; a canceled warm-up leaves a
// partially-trained model, which callers abandon (the curriculum stops
// on cancellation) rather than treat as a finished stage.
func WarmUpCtx(ctx context.Context, m *policy.Model, samples []*dataset.Sample, failures []*grpo.FailureSample, cfg Config) (Stats, error) {
	var st Stats
	ruleIdx := make(map[string]int, len(m.Rules))
	for i, r := range m.Rules {
		ruleIdx[r.Name] = i
	}
	clones, fixes := make([]example, len(samples)), make([]example, len(failures))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// First-time augmented samples: clone the teacher.
		for i, s := range samples {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			ex := &clones[i]
			if ex.diag == nil {
				ex.recs, _ = teacherTrajectory(m, s.O0)
				ex.h = m.HashFeatures(ir.CanonicalText(s.O0))
				ex.diag = m.DiagFeatures(ex.h, ex.recs)
			}
			// One cross-entropy gradient step toward each teacher
			// action, in place.
			for _, rec := range ex.recs {
				m.AddGrad(&m.Linear, rec, ex.h, lr)
				st.CloneSteps++
			}
			// The first-time diagnosis target is OK.
			trainDiag(m, ex, policy.DiagOK, "")
		}
		// Correction-augmented samples: learn the true diagnosis for
		// each observed failure, the association between the rules used
		// and the error subclass, and — the corrective half of Fig. 2 —
		// a margin against the actions the diagnostic blamed.
		for i, fs := range failures {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			ex := &fixes[i]
			if ex.diag == nil {
				ex.recs = reconstructRecords(ruleIdx, fs)
				ex.diag = m.DiagFeatures(m.HashFeatures(ir.CanonicalText(fs.Sample.O0)), ex.recs)
			}
			trainDiag(m, ex, fs.TrueClass, fs.TrueDiag)
			if fs.TrueClass != policy.DiagOK {
				penalizeBlamed(m, ruleIdx, fs)
			}
		}
	}
	// The warm-up teaches the model to attempt self-correction.
	m.SelfCorrectGate = 2.0
	m.Clamp()
	return st, nil
}

// example is what the warm-up trains on for one sample or failure. None
// of it reads the weights the epochs train, so the first epoch computes
// it and the others reuse it: the action records (the teacher's, or a
// failure's rules), the input's hash features h (a sample's; a failure
// trains no action) and the diagnostic head's features diag over both.
type example struct {
	recs    []policy.ActionRecord
	h, diag []float64
}

// penalizeBlamed pushes down the failure-causing rules named in a
// correction-augmented sample, found by name in ruleIdx, at half the
// learning rate: the supervised counterpart of cloning the corrected
// answer instead of the wrong attempt.
func penalizeBlamed(m *policy.Model, ruleIdx map[string]int, fs *grpo.FailureSample) {
	for _, name := range fs.UsedRules {
		idx, ok := ruleIdx[name]
		if !ok {
			continue
		}
		k := m.Rules[idx].Kind
		if k != rewrite.KindCorrupt && k != rewrite.KindUnsound {
			continue
		}
		m.B[idx] -= lr / 2
		m.P[idx] -= lr / 2
	}
}

// reconstructRecords rebuilds action records for a harvested failure
// so the diagnostic features reflect what the failing trajectory did.
// Only the rule kinds matter for the features; it synthesizes records
// whose chosen actions are the named rules, found in ruleIdx.
func reconstructRecords(ruleIdx map[string]int, fs *grpo.FailureSample) []policy.ActionRecord {
	var recs []policy.ActionRecord
	for _, name := range fs.UsedRules {
		if idx, ok := ruleIdx[name]; ok {
			recs = append(recs, policy.ActionRecord{Cands: []int{idx}, Chosen: 0})
		}
	}
	return recs
}

// trainDiag applies one supervised step on the diagnostic head toward
// the true class, and perceptron-bumps the subclass association for
// semantic errors.
func trainDiag(m *policy.Model, ex *example, trueClass policy.DiagClass, trueDiag string) {
	m.Diag.AddGrad(m.Diag.W, ex.diag, int(trueClass), lr)
	if trueClass == policy.DiagSemanticError && trueDiag != "" {
		sub := policy.SubclassForDiag(trueDiag)
		for _, rec := range ex.recs {
			a := rec.Cands[rec.Chosen]
			m.Diag.BumpSub(sub, a, lr)
		}
	}
}
