package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
	"veriopt/internal/par"
	"veriopt/internal/rewrite"
	"veriopt/internal/server"
)

// The model-output mix the RL loop sends the verifier: half the
// candidates are right, a third are plausible miscompiles, the rest do
// not parse.
const (
	fracEquiv    = 0.50
	fracSemantic = 0.35 // the remaining 0.15 is syntax
)

// request is one verification query with the verdict it must get. The
// label never comes from the verifier: equivalent by construction
// (instcombine's reference output), semantic_error by a concrete input
// the independent interpreter distinguishes, syntax_error by the parser.
type request struct {
	name   string // source function name; unique, joins spans to ops in the traced run
	family string // dataset scenario of the source
	label  string
	body   []byte // POST /v1/verify JSON
}

// texts decodes the request's source and target IR back out of its
// body; the harness keeps bodies only, not a second copy of the corpus.
func (r request) texts() (src, tgt string) {
	var v server.VerifyRequest
	if err := json.Unmarshal(r.body, &v); err != nil {
		panic("corpus: own request body does not decode: " + err.Error())
	}
	return v.Src, v.Tgt
}

// corpusChunk is how many samples one dataset.Generate call makes. The
// corpus is generated chunk by chunk so that only one chunk's IR graphs
// per worker are alive at a time — peak_rss_mb then measures the
// system, not the corpus — and so that generation uses every core.
const corpusChunk = 1024

// forEachSample generates the n-sample corpus of seed on `workers`
// goroutines and hands each sample, with its index, to fn. Chunk c is
// dataset.Generate under its own seed, so a shorter corpus is a prefix
// of a longer one; function names get the chunk number appended, which
// keeps them unique across chunks (dataset numbers them per call). fn
// must write to index-disjoint slots only and must not keep the sample.
func forEachSample(seed int64, n, workers int, fn func(i int, s *dataset.Sample)) error {
	chunks := (n + corpusChunk - 1) / corpusChunk
	errs := make([]error, chunks)
	par.ParallelFor(workers, chunks, func(c int) {
		base := c * corpusChunk
		samples, err := dataset.Generate(dataset.Config{
			Seed: seed*1_000_003 + int64(c), N: min(corpusChunk, n-base), SkipVerify: true})
		if err != nil {
			errs[c] = fmt.Errorf("corpus: chunk %d: %w", c, err)
			return
		}
		for j, s := range samples {
			old := "@" + s.O0.NameStr + "("
			s.O0.NameStr = fmt.Sprintf("%s_c%d", s.O0.NameStr, c)
			s.Ref.NameStr = s.O0.NameStr
			renamed := "@" + s.O0.NameStr + "("
			s.O0Text = strings.Replace(s.O0Text, old, renamed, 1)
			s.RefText = strings.Replace(s.RefText, old, renamed, 1)
			fn(base+j, s)
		}
	})
	return errors.Join(errs...)
}

// buildRequests synthesizes n requests from seed, one per corpus
// sample, so all n keys are distinct. Each op draws its kind and its
// damage from its own stream, so the list does not depend on workers
// and a shorter list is a prefix of a longer one.
func buildRequests(seed int64, n, workers int) ([]request, error) {
	unsound, corrupt := rewrite.Unsound(), rewrite.Corruptions()
	reqs := make([]request, n)
	errs := make([]error, n)
	err := forEachSample(seed, n, workers, func(i int, s *dataset.Sample) {
		rng := rand.New(rand.NewSource(seed<<20 ^ int64(i)))
		r := request{name: s.O0.NameStr, family: s.Scenario}
		var tgt string
		var probes []probe // made on first need
		for r.label == "" {
			switch x := rng.Float64(); {
			case x < fracEquiv:
				tgt, r.label = s.RefText, alive.Equivalent.String()
			case x < fracEquiv+fracSemantic:
				if probes == nil {
					probes = definedRuns(s.O0, rng)
				}
				if t, ok := miscompile(s.Ref, probes, unsound, rng); ok {
					tgt, r.label = t, alive.SemanticError.String()
				}
			default:
				if t, ok := garble(s.RefText, corrupt, rng); ok {
					tgt, r.label = t, alive.SyntaxError.String()
				}
			}
		}
		r.body, errs[i] = json.Marshal(server.VerifyRequest{Src: s.O0Text, Tgt: tgt})
		reqs[i] = r
	})
	if err := errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}
	return reqs, nil
}

// probe is one concrete input on which the source function is fully
// defined — no undefined behaviour, no poison result — with the value
// it returns there.
type probe struct {
	args []interp.Val
	ret  uint64
}

// probeBits are the boundary values tried (masked to width) alongside
// random ones; unsound folds typically break at sign and overflow
// edges.
var probeBits = []uint64{0, 1, 2, 3, 7, 8, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0x7fffffff, 0x80000000,
	0xfffffffe, 0xffffffff, 0x7fffffffffffffff, 0x8000000000000000, ^uint64(0), ^uint64(1)}

// definedRuns interprets src on a fixed number of boundary and random
// inputs and keeps those it is fully defined on. The slice is non-nil
// even when empty.
func definedRuns(src *ir.Function, rng *rand.Rand) []probe {
	const tries = 16
	out := make([]probe, 0, tries)
	for try := 0; try < tries; try++ {
		args := make([]interp.Val, len(src.Params))
		for j := range args {
			if rng.Intn(2) == 0 {
				args[j] = interp.V(probeBits[rng.Intn(len(probeBits))])
			} else {
				args[j] = interp.V(rng.Uint64())
			}
		}
		if o, err := interp.Run(src, args, interp.DefaultConfig()); err == nil && !o.UB && !o.Ret.Poison {
			out = append(out, probe{args, o.Ret.Bits})
		}
	}
	return out
}

// miscompile applies one unsound rewrite to a copy of the reference
// output and keeps it only if, on one of the source's defined runs, the
// result is also fully defined and returns a different value — a
// refinement violation no verifier may accept.
func miscompile(ref *ir.Function, probes []probe, rules []*rewrite.Rule, rng *rand.Rand) (string, bool) {
	if len(probes) == 0 {
		return "", false
	}
	for _, ri := range rng.Perm(len(rules)) {
		rule := rules[ri]
		if !rule.Applicable(ref) {
			continue
		}
		g := ir.CloneFunc(ref)
		if !rule.Apply(g, rng) || ir.VerifyFunc(g) != nil || len(g.Params) != len(probes[0].args) {
			continue
		}
		for _, p := range probes {
			if o, err := interp.Run(g, p.args, interp.DefaultConfig()); err == nil && !o.UB && !o.Ret.Poison && o.Ret.Bits != p.ret {
				return ir.FuncString(g), true
			}
		}
	}
	return "", false
}

// garble damages the printed reference output and keeps it only if the
// result is rejected by the parser or the IR verifier.
func garble(text string, rules []*rewrite.Rule, rng *rand.Rand) (string, bool) {
	for _, ri := range rng.Perm(len(rules)) {
		out := rules[ri].ApplyText(text, rng)
		f, err := ir.ParseFunc(out)
		if err != nil || ir.VerifyFunc(f) != nil {
			return out, true
		}
	}
	return "", false
}

// input is one search-cold op: an unoptimized function to run a pass
// search on.
type input struct {
	name   string
	family string
	fn     *ir.Function
}

func buildInputs(seed int64, n, workers int) ([]input, error) {
	ins := make([]input, n)
	err := forEachSample(seed, n, workers, func(i int, s *dataset.Sample) {
		ins[i] = input{name: s.O0.NameStr, family: s.Scenario, fn: s.O0}
	})
	return ins, err
}

// digestRequests fingerprints an ordered op list — every request with
// its label, then the order the timed phase plays them in (nil = once
// each, in list order) — so two runs can be seen to have done the same
// work.
func digestRequests(reqs []request, order []int32) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d:%s%s\n", len(r.body), r.body, r.label)
	}
	binary.Write(h, binary.LittleEndian, order) // sha256 writes cannot fail
	return hex.EncodeToString(h.Sum(nil))
}

func digestInputs(ins []input) string {
	h := sha256.New()
	for _, in := range ins {
		text := ir.FuncString(in.fn)
		fmt.Fprintf(h, "%d:%s\n", len(text), text)
	}
	return hex.EncodeToString(h.Sum(nil))
}
