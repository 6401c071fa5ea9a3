package pipeline

import (
	"context"

	"veriopt/internal/dataset"
	"veriopt/internal/grpo"
	"veriopt/internal/ir"
	"veriopt/internal/policy"
	"veriopt/internal/rewrite"
)

// warmupLR is the supervised learning rate of every warm-up.
const warmupLR = 0.35

// WarmUpCtx runs the supervised stage (Fig. 3, "Warm-up Model") on the
// model in place for the given number of epochs: behaviour cloning of
// first-time samples (the teacher's walk toward the instcombine label,
// policy.Model.Teach) and diagnostic training from correction-augmented
// samples (Model Zero failures with their true verifier feedback). The
// warm-up gives the policy a teacher prior over sound actions and the
// diagnostic head its rudimentary error recognition, and opens the
// self-correction gate. It returns the number of behaviour-cloning
// steps. The context is polled once per sample; a canceled warm-up
// leaves a partially-trained model, which callers abandon rather than
// treat as a finished stage. The Fig. 5 SFT baselines are this, with
// no failures.
func WarmUpCtx(ctx context.Context, m *policy.Model, samples []*dataset.Sample, failures []*grpo.FailureSample, epochs int) (steps int, err error) {
	ruleIdx := make(map[string]int, len(m.Rules))
	for i, r := range m.Rules {
		ruleIdx[r.Name] = i
	}
	clones, fixes := make([]example, len(samples)), make([]example, len(failures))
	for epoch := 0; epoch < epochs; epoch++ {
		// First-time augmented samples: clone the teacher.
		for i, s := range samples {
			if err := ctx.Err(); err != nil {
				return steps, err
			}
			ex := &clones[i]
			if ex.diag == nil {
				ex.h = m.HashFeatures(ir.CanonicalText(s.O0))
				_, ex.recs = m.Teach(s.O0, ex.h)
				ex.diag = m.DiagFeatures(ex.h, ex.recs)
			}
			// One cross-entropy gradient step toward each teacher
			// action, in place.
			for _, rec := range ex.recs {
				m.AddGrad(&m.Linear, rec, ex.h, warmupLR)
				steps++
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
				return steps, err
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
	return steps, nil
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
		m.B[idx] -= warmupLR / 2
		m.P[idx] -= warmupLR / 2
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
	m.Diag.AddGrad(m.Diag.W, ex.diag, int(trueClass), warmupLR)
	if trueClass == policy.DiagSemanticError && trueDiag != "" {
		sub := policy.SubclassForDiag(trueDiag)
		for _, rec := range ex.recs {
			a := rec.Cands[rec.Chosen]
			m.Diag.BumpSub(sub, a, warmupLR)
		}
	}
}
