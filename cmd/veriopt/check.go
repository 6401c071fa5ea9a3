package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
)

// cmdCheck translation-validates a transformed file against its
// source, in the style of alive-tv: it prints the verdict and, for
// semantic errors, the counterexample diagnostic. Both files may hold
// whole modules: functions are paired by name (a lone source function
// pairs with a lone target whatever their names) and validated
// concurrently through one oracle stack the command builds, so
// duplicate bodies are proven once. SIGINT cancels in-flight
// verification; functions not yet checked report an inconclusive
// "canceled" verdict.
//
// It returns the exit status: 0 equivalent, 1 semantic/syntax error,
// 2 inconclusive, 3 usage or source errors, 130 interrupted.
func cmdCheck(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	paths := fs.Int("paths", 0, "max CFG paths (0 = default)")
	budget := fs.Int("budget", 0, "SAT conflict budget (0 = default)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent verification workers")
	stats := fs.Bool("stats", false, "print verification-engine stats to stderr")
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 3
	}
	if fs.NArg() != 2 {
		return fail(fmt.Errorf("usage: veriopt check [-paths n] [-budget n] [-workers n] [-stats] source.ll target.ll"))
	}
	// A broken source is harness misuse, a broken target a model
	// failure: the first is an error, the second a syntax_error verdict.
	srcMod, err := readModule(fs.Arg(0), true)
	if err != nil {
		return fail(fmt.Errorf("source: %w", err))
	}
	tgtBlob, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	opts := alive.DefaultOptions()
	if *paths > 0 {
		opts.MaxPaths = *paths
	}
	if *budget > 0 {
		opts.SolverBudget = *budget
	}

	o := oracle.NewStack(oracle.Config{})
	results, runErr := check(ctx, o, srcMod, string(tgtBlob), opts, *workers)
	worst := 0
	for _, r := range results {
		if len(results) > 1 {
			fmt.Fprintf(stdout, "---- @%s ----\n", r.name)
		}
		switch r.res.Verdict {
		case alive.Equivalent:
			fmt.Fprintln(stdout, "Transformation seems to be correct!")
		case alive.SemanticError, alive.SyntaxError:
			fmt.Fprintln(stdout, r.res.Diag)
			worst = max(worst, 1)
		case alive.Inconclusive:
			fmt.Fprintln(stdout, r.res.Diag)
			worst = max(worst, 2)
		}
	}
	if *stats {
		reportVerifierStats(o)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "interrupted: partial results above")
		return 130
	}
	return worst
}

type funcResult struct {
	name string
	res  alive.Result
}

// check validates every target function against its source function,
// fanning the queries out across the worker pool. On cancellation it
// returns the partially filled results alongside the context error;
// unreached functions carry a canceled (inconclusive) verdict.
func check(ctx context.Context, o oracle.Oracle, srcMod *ir.Module, tgtText string, opts alive.Options, workers int) ([]funcResult, error) {
	// A lone source function pairs with a lone target, whatever their
	// names; otherwise functions pair by name.
	single := len(srcMod.Funcs) == 1
	tgts := make([]*ir.Function, 1)
	var err error
	if single {
		tgts[0], err = ir.ParseFunc(tgtText)
	} else if m, perr := ir.Parse(tgtText); perr != nil {
		err = perr
	} else {
		tgts = m.Funcs
	}
	if err != nil {
		// An unparsable target is a syntax error on the whole file.
		_, res := alive.Candidate(nil, err)
		return []funcResult{{name: "<module>", res: res}}, nil
	}
	out := make([]funcResult, len(tgts))
	for i, tf := range tgts {
		out[i] = funcResult{name: tf.Name(), res: alive.CanceledResult(context.Canceled)}
	}
	runErr := par.For(ctx, workers, len(tgts), func(i int) {
		sf := srcMod.Funcs[0]
		if !single {
			sf = srcMod.Func(tgts[i].Name())
		}
		if sf == nil {
			out[i].res = alive.Result{Verdict: alive.SyntaxError,
				Diag: fmt.Sprintf("ERROR: target function @%s has no source counterpart", tgts[i].Name())}
			return
		}
		tf, res := alive.Candidate(tgts[i], nil)
		if tf != nil {
			res = o.Verify(ctx, sf, tf, opts)
		}
		out[i].res = res
	})
	return out, runErr
}
