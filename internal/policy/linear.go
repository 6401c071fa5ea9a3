package policy

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Linear is the linear-softmax scorer every policy in the tree embeds
// (the token policy here, the pass-sequence policy in internal/seqopt):
//
//	logit(a) = B[a] + S[a]·stepFrac + P[a]·work + Σ_j N[a][j]·h_j(x)
//
// B, S and P are trainable; N is frozen after initialization. P is
// nil for a policy without the work-remaining feature (and then
// absent from the JSON of a struct embedding Linear). A gradient is a
// Linear too (Grad), so scoring, the log-probability gradient and the
// clipped update are each written once, here.
type Linear struct {
	B []float64
	S []float64
	P []float64 `json:",omitempty"`
	N [][]float64
}

// NewLinear allocates the block for n actions: zero B and S (and P
// when work is set), N drawn from rng as noise·N(0,1) per feature.
func NewLinear(n, features int, noise float64, work bool, rng *rand.Rand) Linear {
	l := Linear{B: make([]float64, n), S: make([]float64, n), N: make([][]float64, n)}
	if work {
		l.P = make([]float64, n)
	}
	for a := range l.N {
		l.N[a] = make([]float64, features)
		for j := range l.N[a] {
			l.N[a][j] = rng.NormFloat64() * noise
		}
	}
	return l
}

// Grad returns a zero gradient accumulator shaped like l's trainable
// part (N is frozen, so it has no gradient).
func (l *Linear) Grad() *Linear {
	g := &Linear{B: make([]float64, len(l.B)), S: make([]float64, len(l.S))}
	if l.P != nil {
		g.P = make([]float64, len(l.P))
	}
	return g
}

// clone deep-copies the block.
func (l *Linear) clone() Linear {
	return Linear{B: cloneVec(l.B), S: cloneVec(l.S), P: cloneVec(l.P), N: cloneRows(l.N)}
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i := range rows {
		out[i] = cloneVec(rows[i])
	}
	return out
}

// HashFeatures derives n per-input pseudo-random features of text:
// deterministic, roughly standard-normal, unit-norm values playing the
// role of the pretrained network's idiosyncratic response to each
// input. salt separates the embeddings of different policies ("" for
// the token policy, "seq" for the sequence policy).
func HashFeatures(n int, salt, text string) []float64 {
	out := make([]float64, n)
	for j := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s%d|", salt, j)
		h.Write([]byte(text))
		v := h.Sum64()
		// Box–Muller over the two 32-bit halves.
		u1 := float64(v&0xFFFFFFFF) / float64(1<<32)
		u2 := float64(v>>32) / float64(1<<32)
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		out[j] = math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	// Normalize so the per-action noise magnitude is governed by the
	// scale of N alone, independent of the feature count.
	norm := 0.0
	for _, v := range out {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm > 1e-9 {
		for j := range out {
			out[j] /= norm
		}
	}
	return out
}

// ActionRecord captures one decision for later policy-gradient
// computation: the candidate set, the state features at decision time,
// and the chosen index.
type ActionRecord struct {
	Cands    []int
	StepFrac float64
	// Work is the work-remaining feature at this step (0 for a policy
	// without it).
	Work   float64
	Chosen int // index into Cands
}

// logit computes the unnormalized score of action a. work in [0,1]
// measures how much sound rewriting remains available — the state
// feature that lets the policy learn conditional stopping.
func (l *Linear) logit(a int, stepFrac, work float64, h []float64) float64 {
	v := l.B[a] + l.S[a]*stepFrac
	if l.P != nil {
		v += l.P[a] * work
	}
	for j, hj := range h {
		v += l.N[a][j] * hj
	}
	return v
}

// softmax turns logits into probabilities in place.
func softmax(logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	sum := 0.0
	for i := range logits {
		logits[i] = math.Exp(logits[i] - maxL)
		sum += logits[i]
	}
	for i := range logits {
		logits[i] /= sum
	}
	return logits
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Softmax computes action probabilities over the candidate set.
func (l *Linear) Softmax(cands []int, stepFrac, work float64, h []float64) []float64 {
	logits := make([]float64, len(cands))
	for i, a := range cands {
		logits[i] = l.logit(a, stepFrac, work, h)
	}
	return softmax(logits)
}

// Choose picks an index into cands: sampled from Softmax when rng is
// set, else the highest logit, ties toward the earlier candidate.
func (l *Linear) Choose(cands []int, stepFrac, work float64, h []float64, rng *rand.Rand) int {
	if rng != nil {
		return sampleIdx(l.Softmax(cands, stepFrac, work, h), rng)
	}
	best, bestV := 0, math.Inf(-1)
	for i, a := range cands {
		if v := l.logit(a, stepFrac, work, h); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func sampleIdx(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(probs) - 1
}

// AddGrad adds scale·∇ log π(r) into dst: for each of r's decisions
// in order, the log-softmax gradient (1[chosen] − p)·feature under l's
// parameters at that point. dst may be l itself (a supervised step,
// where each decision sees what the one before it left) or an
// accumulator from Grad.
func (l *Linear) AddGrad(dst *Linear, r Rollout, scale float64) {
	for _, rec := range r.Actions {
		probs := l.Softmax(rec.Cands, rec.StepFrac, rec.Work, r.H)
		for i, a := range rec.Cands {
			coeff := (b2f(i == rec.Chosen) - probs[i]) * scale
			dst.B[a] += coeff
			dst.S[a] += coeff * rec.StepFrac
			if dst.P != nil {
				dst.P[a] += coeff * rec.Work
			}
		}
	}
}

// ClassProbs is the dense twin of Softmax for the diagnostic head:
// one logit W[c]·f per class.
func (d *DiagHead) ClassProbs(f []float64) []float64 {
	logits := make([]float64, len(d.W))
	for c, row := range d.W {
		for j, fj := range f {
			logits[c] += row[j] * fj
		}
	}
	return softmax(logits)
}

// AddGrad is the dense twin of one decision of Linear.AddGrad:
// scale·∇ log p(class) under d's current weights, added into dst (d.W
// itself or a W-shaped accumulator).
func (d *DiagHead) AddGrad(dst [][]float64, f []float64, class int, scale float64) {
	for c, p := range d.ClassProbs(f) {
		coeff := (b2f(c == class) - p) * scale
		for j, fj := range f {
			dst[c][j] += coeff * fj
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ClipStep is the one parameter update: gradient ascent l += lr·g
// (dense += lr·gDense for a dense head trained alongside; a nil gDense
// leaves the head where it is), with the step scaled down so a global
// gradient norm above clip moves the parameters as if it were clip,
// then Clamp(lim, dense...), with or without gDense. It returns
// the pre-clip norm. N is frozen: it models the pretrained network's
// fixed per-input idiosyncrasies, the irreducible error source of
// Table II.
func (l *Linear) ClipStep(g *Linear, dense, gDense [][]float64, lr, clip, lim float64) float64 {
	params, grads := l.trainable(dense), g.trainable(gDense)
	norm := 0.0
	for _, gv := range grads {
		for _, v := range gv {
			norm += v * v
		}
	}
	norm = math.Sqrt(norm)
	if clip > 0 && norm > clip {
		lr *= clip / norm
	}
	for i, gv := range grads {
		for j, v := range gv {
			params[i][j] += lr * v
		}
	}
	l.Clamp(lim, dense...)
	return norm
}

func (l *Linear) trainable(dense [][]float64) [][]float64 {
	return append([][]float64{l.B, l.S, l.P}, dense...)
}

// Clamp enforces the finite parameter budget |v| <= lim on B, S, P
// and the given dense rows; lim <= 0 means no budget.
func (l *Linear) Clamp(lim float64, dense ...[]float64) {
	if lim <= 0 {
		return
	}
	for _, vs := range l.trainable(dense) {
		for i, v := range vs {
			vs[i] = math.Max(-lim, math.Min(lim, v))
		}
	}
}
