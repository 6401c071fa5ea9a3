// Command veriopt is the CLI: it generates corpora, trains the
// four-model curriculum, evaluates models, regenerates every table and
// figure of the paper, serves the verifier over HTTP, and holds the
// file-level tools (translation validation, the IR toolbox).
//
// Usage:
//
//	veriopt experiments [-run id|all] [-n corpus] [-seed s] [-trace f] [flags]
//	veriopt train       [-n corpus] [-seed s] [-trace f] [flags]
//	veriopt optimize    [-model m.json] [-workers n] file.ll
//	veriopt check       [-paths n] [-budget n] [-workers n] [-stats] source.ll target.ll
//	veriopt ir          print|verify|opt|cost|interp file.ll [fn args...]
//	veriopt serve       [-addr host:port] [-queue n] [-workers n] [-model m.json]
//	veriopt dataset     [-n corpus] [-seed s] [-out dir]
//	veriopt list
//
// A first SIGINT cancels the run cooperatively: in-flight training
// steps abort without a model update, evaluations stop dispatching,
// and the partial report plus verifier stats are still printed before
// exit. A second SIGINT force-kills via the default handler.
//
// -trace writes structured JSON-lines events (internal/obs schema:
// run_start, stage_start/stage_end with verdict/cache deltas and
// reward summaries, eval, interrupted, run_end) to a file, or to
// stderr with "-trace -".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ckpt"
	"veriopt/internal/dataset"
	"veriopt/internal/experiments"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
	"veriopt/internal/pipeline"
	"veriopt/internal/policy"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// Once the first SIGINT has canceled ctx, unregister the
		// handler: a second SIGINT terminates via the default action.
		<-ctx.Done()
		stop()
	}()

	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "experiments":
		err = cmdExperiments(ctx, os.Args[2:])
	case "train":
		err = cmdTrain(ctx, os.Args[2:])
	case "dataset":
		err = cmdDataset(os.Args[2:])
	case "optimize":
		err = cmdOptimize(ctx, os.Args[2:])
	case "check":
		os.Exit(cmdCheck(ctx, os.Args[2:], os.Stdout))
	case "ir":
		err = cmdIR(os.Args[2:], os.Stdout)
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "list":
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Println("  " + id)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted: partial results flushed above")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `veriopt — LLM-VeriOpt reproduction driver

subcommands:
  experiments  regenerate paper tables/figures (-run table1|...|all)
  train        run the four-stage curriculum and print stage summaries
               (-save model.json persists the Model-Latency policy);
               -workload=passes trains the pass-sequence policy instead
               and prints the policy/greedy/beam/fixed comparison table
  optimize     optimize a .ll file with a trained model (or, without
               -model, instcombine) under the verifier's fallback rule
  check        translation-validate target.ll against source.ll, function
               by function (exit 0 equivalent, 1 semantic/syntax error,
               2 inconclusive, 3 usage/source error, 130 interrupted)
  ir           IR toolbox: print, verify, opt (instcombine, unverified),
               cost, interp
  serve        HTTP/JSON verification service: /v1/verify, /v1/optimize,
               /v1/evaluate, /healthz, /metrics; bounded queue with 429
               shedding, graceful drain on SIGTERM
  cache        verdict-store admin: "cache stat -store-dir DIR" prints
               a segment store's stats
  dataset      generate a corpus and write .ll files
  list         list experiment ids

SIGINT cancels cooperatively (partial report + stats still print);
-trace file|- emits JSON-lines progress events (see internal/obs).`)
}

func commonFlags(fs *flag.FlagSet) (*int, *int64, *int, *int, *int, *int, *string) {
	n := fs.Int("n", 240, "corpus size (train+validation)")
	seed := fs.Int64("seed", 42, "random seed")
	s1 := fs.Int("stage1", 10, "Model Zero GRPO steps")
	s2 := fs.Int("stage2", 120, "Model-Correctness GRPO steps")
	s3 := fs.Int("stage3", 80, "Model-Latency GRPO steps")
	workers := fs.Int("workers", runtime.NumCPU(),
		"verification/rollout worker count (results are identical at any value)")
	trace := fs.String("trace", "", "write JSON-lines trace events to this file ('-' = stderr)")
	return n, seed, s1, s2, s3, workers, trace
}

// openTrace builds the recorder for -trace. An empty path yields a
// nil recorder, which obs treats as a no-op sink.
func openTrace(path string) (*obs.Recorder, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return obs.New(os.Stderr), func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("open trace file: %w", err)
	}
	return obs.New(f), func() { f.Close() }, nil
}

func buildContext(ctx context.Context, rec *obs.Recorder, o oracle.Oracle, n int, seed int64, s1, s2, s3, workers int) *experiments.Context {
	cfg := experiments.DefaultConfig()
	cfg.CorpusN = n
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Stage.Stage1Steps = s1
	cfg.Stage.Stage2Steps = s2
	cfg.Stage.Stage3Steps = s3
	c := experiments.NewContext(cfg, o)
	c.Ctx = ctx
	c.Obs = rec
	c.Progress = func(msg string) {
		fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg)
	}
	return c
}

// reportVerifierStats prints the counters of the stack the command
// built (per-verdict query distribution and answer wall time, then
// cache hits and solver wall time) to stderr. An attached verdict store
// reports itself once, in closeStore.
func reportVerifierStats(o *oracle.Stack) {
	ostats, s := o.OracleStats()
	fmt.Fprintf(os.Stderr, "[oracle: %d queries (%d equivalent, %d semantic, %d syntax, %d inconclusive, %d canceled), %v wall]\n[%s]\n",
		s.Queries, s.ByVerdict[alive.Equivalent], s.ByVerdict[alive.SemanticError],
		s.ByVerdict[alive.SyntaxError], s.ByVerdict[alive.Inconclusive],
		s.Canceled, ostats.Wall.Round(time.Millisecond), s)
}

func cmdExperiments(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	run := fs.String("run", "all", "experiment id or 'all'")
	storeDir := fs.String("store-dir", "",
		"durable verdict store directory: verdicts append incrementally as they are proved (warm-starts reruns)")
	n, seed, s1, s2, s3, workers, trace := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, closeTrace, err := openTrace(*trace)
	if err != nil {
		return err
	}
	defer closeTrace()
	st, err := openStoreDir(*storeDir, rec)
	if err != nil {
		return err
	}
	o := storeStack(st, nil)
	c := buildContext(ctx, rec, o, *n, *seed, *s1, *s2, *s3, *workers)
	defer reportVerifierStats(o)
	defer closeStore(st, rec)
	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	rec.Emit(obs.Event{Kind: "run_start", Note: fmt.Sprintf("%d experiments", len(ids))})
	for _, id := range ids {
		t0 := time.Now()
		out, err := experiments.Run(strings.TrimSpace(id), c)
		if err != nil {
			rec.Emit(obs.Event{Kind: "interrupted", Stage: id, Note: err.Error()})
			return err
		}
		fmt.Println(experiments.Render(out))
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
		rec.Emit(obs.Event{Kind: "eval", Stage: id,
			WallMs: float64(time.Since(t0).Microseconds()) / 1000})
	}
	rec.Emit(obs.Event{Kind: "run_end"})
	return nil
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	save := fs.String("save", "", "write the most advanced trained policy to this JSON file (atomic write; on interrupt, whatever finished)")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory: written at every stage boundary (peephole only)")
	resume := fs.Bool("resume", false, "continue from the checkpoint in -checkpoint (bit-identical to an uninterrupted run; peephole only)")
	storeDir := fs.String("store-dir", "",
		"durable verdict store directory: verdicts append incrementally as they are proved (warm-starts reruns)")
	workload := fs.String("workload", "peephole",
		"training workload: 'peephole' (text rewriting curriculum) or 'passes' (pass-sequence phase ordering; "+
			"has no checkpoints: -checkpoint and -resume are rejected)")
	seqSteps := fs.Int("seq-steps", 30, "passes workload: sequence-policy GRPO steps")
	n, seed, s1, s2, s3, workers, trace := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "passes" {
		// The passes workload has no checkpoints; refuse rather than
		// accept the flags and silently write and resume nothing.
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint" || f.Name == "resume" {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("-workload=passes has no checkpoints: remove %s", strings.Join(set, ", "))
		}
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume continues the checkpoint in -checkpoint, and none was given")
	}
	rec, closeTrace, err := openTrace(*trace)
	if err != nil {
		return err
	}
	defer closeTrace()
	st, err := openStoreDir(*storeDir, rec)
	if err != nil {
		return err
	}
	o := storeStack(st, nil)
	c := buildContext(ctx, rec, o, *n, *seed, *s1, *s2, *s3, *workers)
	if *checkpoint != "" {
		c.Cfg.Stage.Ckpt = &pipeline.CkptConfig{Dir: *checkpoint, Resume: *resume}
	}
	defer reportVerifierStats(o)
	defer closeStore(st, rec)
	switch *workload {
	case "passes":
		return trainPasses(ctx, o, c, rec, *save, *seqSteps)
	case "peephole":
	default:
		return fmt.Errorf("unknown -workload %q (have peephole, passes)", *workload)
	}
	rec.Emit(obs.Event{Kind: "run_start", Note: "train"})

	res, runErr := c.Pipeline()
	if res == nil {
		return runErr
	}
	// Persist whatever finished before anything below can fail: the
	// -save file must be written even when the run was interrupted or
	// a later evaluation errors.
	if err := savePolicy(res, *save); err != nil {
		return err
	}
	// Print the evaluation table for every model that finished
	// training — on SIGINT that is the partial report; unfinished
	// stages are reported as skipped.
	val, err := c.Val()
	if err != nil {
		return err
	}
	ec := pipeline.EvalConfig{Workers: *workers}
	rows := []struct {
		name      string
		m         *policy.Model
		augmented bool
	}{
		{"base", res.Base, false},
		{"model-zero", res.ModelZero, false},
		{"warm-up", res.WarmUp, true},
		{"correctness", res.Correctness, true},
		{"latency", res.Latency, false},
	}
	fmt.Printf("%-12s %9s %9s %13s %9s\n", "model", "correct%", "copies%", "diff-correct%", "speedup")
	var last *pipeline.Report
	for _, r := range rows {
		if r.m == nil {
			fmt.Printf("%-12s (stage not reached before interrupt)\n", r.name)
			continue
		}
		// Evaluation itself stays cancelable, but runs on Background
		// after an interrupt so the partial report can still be
		// produced for the completed stages.
		ectx := ctx
		if runErr != nil {
			ectx = context.Background()
		}
		rep, err := pipeline.EvaluateCtx(ectx, o, r.m, val, r.augmented, ec)
		if err != nil {
			return err
		}
		last = rep
		fmt.Printf("%-12s %8.1f%% %8.1f%% %12.1f%% %8.2fx\n",
			r.name, 100*rep.CorrectFrac(),
			100*float64(rep.Copies)/float64(rep.Total()),
			100*rep.DifferentCorrectFrac(), pipeline.GeomeanSpeedup(rep))
	}
	if last != nil {
		fmt.Printf("instcombine reference speedup: %.2fx\n", pipeline.RefGeomeanSpeedup(last))
	}
	if runErr != nil {
		rec.Emit(obs.Event{Kind: "interrupted", Note: runErr.Error()})
		return runErr
	}
	rec.Emit(obs.Event{Kind: "run_end"})
	return nil
}

// trainPasses drives the pass-sequence workload: train the sequence
// policy on the training split, then print the four-way comparison
// (fixed instcombine / greedy / beam / policy) on the validation
// split. On SIGINT the partial result still saves and reports.
func trainPasses(ctx context.Context, o oracle.Oracle, c *experiments.Context, rec *obs.Recorder, save string, steps int) error {
	rec.Emit(obs.Event{Kind: "run_start", Note: "train -workload=passes"})
	train, err := c.Train()
	if err != nil {
		return err
	}
	val, err := c.Val()
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultPassesConfig()
	cfg.Seed = c.Cfg.Seed
	cfg.Workers = c.Cfg.Workers
	cfg.Obs = rec
	cfg.TrainSteps = steps
	res, runErr := pipeline.RunPassesCtx(ctx, o, train, val, cfg)
	if res == nil {
		return runErr
	}
	if save != "" && res.Model != nil {
		blob, err := json.MarshalIndent(res.Model, "", " ")
		if err != nil {
			return err
		}
		if err := ckpt.WriteFileAtomic(save, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("saved sequence policy to %s\n", save)
	}
	if res.Report != nil {
		fmt.Print(res.Report.String())
	} else {
		fmt.Println("(evaluation not reached before interrupt)")
	}
	if runErr != nil {
		rec.Emit(obs.Event{Kind: "interrupted", Note: runErr.Error()})
		return runErr
	}
	rec.Emit(obs.Event{Kind: "run_end"})
	return nil
}

// savePolicy writes the most advanced trained policy in res to path
// atomically (write-to-temp + rename, so an interrupt mid-write never
// corrupts an existing model file). On an interrupted run that is the
// latest stage that finished, reported by name.
func savePolicy(res *pipeline.Result, path string) error {
	if path == "" {
		return nil
	}
	name, model := res.Latest()
	if model == nil {
		fmt.Fprintf(os.Stderr, "-save: no stage finished before interrupt, nothing written to %s\n", path)
		return nil
	}
	blob, err := json.MarshalIndent(model, "", " ")
	if err != nil {
		return err
	}
	if err := ckpt.WriteFileAtomic(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("saved %s policy to %s\n", name, path)
	return nil
}

// readModule is the file prologue of optimize, check and ir: read,
// parse and, when verify is set, structurally verify a .ll file.
func readModule(path string, verify bool) (*ir.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if verify {
		if err := ir.VerifyModule(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loadModel reads the trained policy behind -model (serve, optimize);
// an empty path is no model.
func loadModel(path string) (*policy.Model, error) {
	if path == "" {
		return nil, nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	model := &policy.Model{}
	if err := json.Unmarshal(blob, model); err != nil {
		return nil, err
	}
	return model, nil
}

// cmdOptimize puts every function of a .ll file through the paper's
// deployment rule (oracle.Accept): the model's output, or without
// -model instcombine's, replaces the input only when the verifier
// proves it.
func cmdOptimize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	modelPath := fs.String("model", "", "trained policy JSON (from train -save); empty = use instcombine only")
	workers := fs.Int("workers", runtime.NumCPU(), "verification worker count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: veriopt optimize [-model m.json] file.ll")
	}
	m, err := readModule(fs.Arg(0), true)
	if err != nil {
		return err
	}
	model, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	opts := alive.DefaultOptions()
	o := oracle.NewStack(oracle.Config{})
	defer reportVerifierStats(o)
	// Generate + verify every function in parallel; notes and the
	// module rewrite are applied sequentially afterwards so output
	// order is deterministic. On SIGINT the unreached functions keep
	// their input (the fallback rule) and the partial module prints.
	outs := make([]*ir.Function, len(m.Funcs))
	why := make([]alive.Result, len(m.Funcs))
	runErr := par.For(ctx, *workers, len(m.Funcs), func(i int) {
		outs[i], why[i] = oracle.Accept(ctx, o, model, m.Funcs[i], nil, opts)
	})
	for i, f := range m.Funcs {
		switch {
		case outs[i] == nil:
			fmt.Fprintf(os.Stderr, "; @%s: not verified before interrupt, keeping input\n", f.Name())
		case outs[i] == f:
			fmt.Fprintf(os.Stderr, "; @%s: verifier verdict %s, keeping input\n", f.Name(), why[i].Verdict)
		default:
			outs[i].NameStr = f.NameStr
			m.Funcs[i] = outs[i]
		}
	}
	fmt.Print(ir.Print(m))
	return runErr
}

func cmdDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	n := fs.Int("n", 100, "number of samples")
	seed := fs.Int64("seed", 42, "random seed")
	out := fs.String("out", "", "output directory for .ll files (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, genRep, err := dataset.GenerateReport(dataset.Config{Seed: *seed, N: *n})
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, genRep)
	if *out == "" {
		for _, s := range samples {
			fmt.Printf("; %s (template %s)\n%s\n", s.Name, s.Template, s.O0Text)
		}
		return nil
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, s := range samples {
		o0 := filepath.Join(*out, s.Name+".O0.ll")
		ref := filepath.Join(*out, s.Name+".instcombine.ll")
		if err := os.WriteFile(o0, []byte(ir.Print(s.Module)), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(ref, []byte(s.RefText), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d sample pairs to %s\n", len(samples), *out)
	return nil
}
