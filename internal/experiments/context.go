// Package experiments regenerates every table and figure of the
// paper's evaluation section (Tables I–III, Figures 4–12) plus the
// design-choice ablations listed in DESIGN.md §6. Each experiment
// renders a plain-text table and exposes its key numbers so
// EXPERIMENTS.md can record measured-vs-paper values.
package experiments

import (
	"context"
	"fmt"

	"veriopt/internal/dataset"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
)

// valFrac is the validation share of the corpus.
const valFrac = 0.33

// Config sizes an experiment run. Defaults are commodity-scale; the
// paper-scale run uses CorpusN large enough for a 4,386-function
// validation set.
type Config struct {
	// CorpusN is the total corpus size (train + validation), of which
	// valFrac is held out for validation.
	CorpusN int
	// Seed drives corpus generation and training.
	Seed int64
	// Workers bounds the rollout/verification fan-out of training and
	// evaluation (<= 0 selects runtime.NumCPU()). Results do not
	// depend on the worker count.
	Workers int
	// Stage configures the curriculum.
	Stage pipeline.StageConfig
}

// DefaultConfig returns the reduced-scale defaults used by tests and
// benchmarks.
func DefaultConfig() Config {
	return Config{
		CorpusN: 240,
		Seed:    42,
		Stage:   pipeline.DefaultStageConfig(),
	}
}

// Context lazily builds and caches the expensive shared artifacts:
// the corpus, the trained curriculum, the baseline suite, and the
// validation report of each (model, prompt).
type Context struct {
	Cfg Config

	// Ctx, when non-nil, makes every run built through this Context
	// cancelable: training steps abort without a model update and
	// evaluations return partial reports. nil means Background.
	Ctx context.Context
	// Obs, when non-nil, receives per-stage trace events from the
	// curriculum run.
	Obs *obs.Recorder

	oracle  oracle.Oracle // answers every verification query
	samples []*dataset.Sample
	train   []*dataset.Sample
	val     []*dataset.Sample
	res     *pipeline.Result
	bl      []*baseline
	reports map[evalKey]*pipeline.Report
	// Progress, when non-nil, receives coarse progress messages.
	Progress func(msg string)
}

// evalKey names one memoized report: a model under one prompt.
type evalKey struct {
	m         *policy.Model
	augmented bool
}

// NewContext returns an empty context for the given config, whose
// runs all verify through o.
func NewContext(cfg Config, o oracle.Oracle) *Context { return &Context{Cfg: cfg, oracle: o} }

func (c *Context) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// context returns the cancellation context runs observe.
func (c *Context) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Corpus returns the generated samples, building them on first use.
func (c *Context) corpus() ([]*dataset.Sample, error) {
	if c.samples == nil {
		c.progress("generating corpus (%d samples)...", c.Cfg.CorpusN)
		s, err := dataset.Generate(dataset.Config{Seed: c.Cfg.Seed, N: c.Cfg.CorpusN})
		if err != nil {
			return nil, err
		}
		c.samples = s
		c.train, c.val, err = dataset.Split(s, valFrac, c.Cfg.Seed+1000)
		if err != nil {
			c.samples = nil
			return nil, err
		}
	}
	return c.samples, nil
}

// Train returns the training split.
func (c *Context) Train() ([]*dataset.Sample, error) {
	if _, err := c.corpus(); err != nil {
		return nil, err
	}
	return c.train, nil
}

// Val returns the validation split (strictly disjoint from training).
func (c *Context) Val() ([]*dataset.Sample, error) {
	if _, err := c.corpus(); err != nil {
		return nil, err
	}
	return c.val, nil
}

// Pipeline returns the trained curriculum, running it on first use.
// A canceled run is returned partially filled (completed stages keep
// their models) with the context's error, and is not cached, so a
// later call under a live context retrains.
func (c *Context) Pipeline() (*pipeline.Result, error) {
	if c.res == nil {
		train, err := c.Train()
		if err != nil {
			return nil, err
		}
		cfg := c.Cfg.Stage
		cfg.Seed = c.Cfg.Seed
		cfg.GRPO.Workers = c.Cfg.Workers
		cfg.Obs = c.Obs
		c.progress("training curriculum (stages 1-3)...")
		res, err := pipeline.RunCtx(c.context(), c.oracle, train, cfg)
		if err != nil {
			return res, err
		}
		c.res = res
	}
	return c.res, nil
}

// report evaluates m greedily on the validation split under its
// prompt (augmented or generic), with alive.DefaultOptions() and the
// context's workers and oracle, and keeps the report: every table and
// figure that reads the same (model, prompt) shares one evaluation.
// The memo relies on a model never changing after it is evaluated
// (training always works on a clone). A canceled evaluation returns
// the context's error and is not kept.
func (c *Context) report(m *policy.Model, augmented bool) (*pipeline.Report, error) {
	k := evalKey{m, augmented}
	if rep, ok := c.reports[k]; ok {
		return rep, nil
	}
	val, err := c.Val()
	if err != nil {
		return nil, err
	}
	rep, err := pipeline.EvaluateCtx(c.context(), c.oracle, m, val, augmented, pipeline.EvalConfig{Workers: c.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	if c.reports == nil {
		c.reports = map[evalKey]*pipeline.Report{}
	}
	c.reports[k] = rep
	return rep, nil
}

// baselines returns the Fig. 5 comparison suite, training it on first
// use. A canceled training returns the context's error and is not
// cached, so a later call under a live context retrains.
func (c *Context) baselines() ([]*baseline, error) {
	if c.bl == nil {
		train, err := c.Train()
		if err != nil {
			return nil, err
		}
		c.progress("training SFT baselines...")
		bl, err := baselineSuite(c.context(), train, c.Cfg.Seed+5000)
		if err != nil {
			return nil, err
		}
		c.bl = bl
	}
	return c.bl, nil
}
