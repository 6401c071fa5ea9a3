package dataset

import (
	"fmt"
	"math/rand"

	"veriopt/internal/alive"
	"veriopt/internal/instcombine"
	"veriopt/internal/ir"
)

// Sample is one training/evaluation pair: the -O0 style function and
// the -instcombine reference output.
type Sample struct {
	Name     string
	Template string
	// Scenario is the template's corpus-taxonomy label (one of the
	// Scenario* constants): it flows from the registry through
	// GenReport rollups and Split into per-scenario evaluation and
	// load-generation accounting.
	Scenario string
	// Module holds declarations the function's calls need.
	Module *ir.Module
	// O0 is the unoptimized function, Ref the instcombine reference.
	O0  *ir.Function
	Ref *ir.Function
	// O0Text/RefText are the canonical printed forms.
	O0Text  string
	RefText string
}

// Config controls corpus generation.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64
	// N is the number of samples wanted (after filtering).
	N int
	// SkipVerify skips the Alive equivalence filter (faster; used by
	// benchmarks that only need shape). The filter verifies under
	// alive.DefaultOptions().
	SkipVerify bool
}

// templateStat is one template's generation accounting.
type templateStat struct {
	name string
	// scenario is the template's corpus-taxonomy label.
	scenario string
	// kept counts instances that survived the verify/context filter.
	kept int
	// rejected counts instances the filter excluded.
	rejected int
}

// scenarioStat aggregates generation accounting over one scenario
// label (several templates).
type scenarioStat struct {
	scenario string
	// templates counts registry entries carrying the label.
	templates int
	kept      int
	rejected  int
}

// GenReport summarizes a corpus generation run: total attempts and
// the per-template kept/rejected split, in registry order.
type GenReport struct {
	attempts  int
	templates []templateStat
}

// scenarios rolls the per-template accounting up to scenario labels,
// in first-appearance registry order.
func (r *GenReport) scenarios() []scenarioStat {
	idx := map[string]int{}
	var out []scenarioStat
	for _, ts := range r.templates {
		i, ok := idx[ts.scenario]
		if !ok {
			i = len(out)
			idx[ts.scenario] = i
			out = append(out, scenarioStat{scenario: ts.scenario})
		}
		out[i].templates++
		out[i].kept += ts.kept
		out[i].rejected += ts.rejected
	}
	return out
}

// String renders the report for logs and the dataset CLI.
func (r *GenReport) String() string {
	kept := 0
	for _, ts := range r.templates {
		kept += ts.kept
	}
	out := fmt.Sprintf("generated %d samples in %d attempts", kept, r.attempts)
	for _, ts := range r.templates {
		out += fmt.Sprintf("\n  %-15s %-13s kept %3d, rejected %3d", ts.name, ts.scenario, ts.kept, ts.rejected)
	}
	for _, ss := range r.scenarios() {
		out += fmt.Sprintf("\n  scenario %-13s %2d templates, kept %3d, rejected %3d",
			ss.scenario, ss.templates, ss.kept, ss.rejected)
	}
	return out
}

// Generate builds a filtered corpus of N samples, mirroring §IV-A:
// lower each synthesized program to -O0 form, label with instcombine,
// keep only pairs the verifier proves equivalent and that fit the
// 2048-token context window.
func Generate(cfg Config) ([]*Sample, error) {
	out, _, err := GenerateReport(cfg)
	return out, err
}

// GenerateReport is Generate plus the per-template accounting.
//
// Templates are scheduled round-robin on *kept* samples: the next
// instance comes from the template with the fewest kept samples so
// far (registry order breaks ties). The old scheme advanced a single
// global counter on every attempt, so a template with a high filter
// rejection rate silently ceded its corpus share to its neighbours;
// now a rejection makes the template retry until it lands a keeper or
// the global attempt cap trips. The schedule depends only on the seed
// and the filter verdicts, so generation stays deterministic.
func GenerateReport(cfg Config) ([]*Sample, *GenReport, error) {
	if cfg.N <= 0 {
		return nil, nil, fmt.Errorf("dataset: N must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tmpls := templates()
	rep := &GenReport{templates: make([]templateStat, len(tmpls))}
	for i, tm := range tmpls {
		rep.templates[i].name = tm.name
		rep.templates[i].scenario = tm.scenario
	}
	var out []*Sample
	id := 0 // global instance counter: keeps generated names unique
	for len(out) < cfg.N {
		rep.attempts++
		if rep.attempts > cfg.N*20 {
			return nil, rep, fmt.Errorf("dataset: filter rejected too many samples (%d kept of %d attempts)", len(out), rep.attempts)
		}
		ti := nextTemplate(rep.templates)
		prog := tmpls[ti].gen(rng, id)
		id++
		s, err := build(prog, tmpls[ti], cfg)
		if err != nil {
			return nil, rep, err
		}
		if s == nil {
			rep.templates[ti].rejected++
			continue // filtered
		}
		rep.templates[ti].kept++
		out = append(out, s)
	}
	return out, rep, nil
}

// nextTemplate picks the template with the fewest kept samples,
// breaking ties toward registry order — balanced representation in
// the kept corpus regardless of per-template rejection rates.
func nextTemplate(stats []templateStat) int {
	best := 0
	for i := 1; i < len(stats); i++ {
		if stats[i].kept < stats[best].kept {
			best = i
		}
	}
	return best
}

func build(prog *program, tmpl template, cfg Config) (*Sample, error) {
	m, err := lower(prog)
	if err != nil {
		return nil, err
	}
	o0 := m.Funcs[0]
	ref := instcombine.Run(o0)
	o0Text := ir.FuncString(o0)
	refText := ir.FuncString(ref)
	// Context-window filter (tokenized like the paper's 2048 cap).
	if !fitsContext(o0Text) || !fitsContext(refText) {
		return nil, nil
	}
	if !cfg.SkipVerify {
		res := alive.VerifyFuncs(o0, ref, alive.DefaultOptions())
		if res.Verdict != alive.Equivalent {
			// Inequivalent (a labeler bug) or unverifiable (deep loop):
			// excluded from the corpus, as in the paper.
			return nil, nil
		}
	}
	return &Sample{
		Name:     prog.name,
		Template: tmpl.name,
		Scenario: tmpl.scenario,
		Module:   m,
		O0:       o0,
		Ref:      ref,
		O0Text:   o0Text,
		RefText:  refText,
	}, nil
}

// Split partitions samples into train and validation sets with the
// given validation fraction, deterministically by seed. The split is
// disjoint (no leakage), mirroring the paper's isolated validation
// set.
//
// The validation size rounds half-up and is at least 1 whenever
// valFrac > 0 and there are at least two samples — the old truncating
// int(n*valFrac) silently produced an empty validation set for small
// corpora (n=5, valFrac=0.15 → 0), and every downstream fraction over
// it was vacuously zero. The training side always keeps at least one
// sample. valFrac outside [0, 1) is an error rather than a silent
// degenerate split.
func Split(samples []*Sample, valFrac float64, seed int64) (train, val []*Sample, err error) {
	if valFrac < 0 || valFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: valFrac %v out of range [0, 1)", valFrac)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(samples))
	nVal := int(float64(len(samples))*valFrac + 0.5)
	if valFrac > 0 && nVal == 0 && len(samples) > 1 {
		nVal = 1
	}
	if nVal > len(samples)-1 {
		nVal = len(samples) - 1 // train keeps at least one sample
	}
	if nVal < 0 {
		nVal = 0
	}
	for i, j := range idx {
		if i < nVal {
			val = append(val, samples[j])
		} else {
			train = append(train, samples[j])
		}
	}
	return train, val, nil
}
