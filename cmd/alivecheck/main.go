// Command alivecheck translation-validates a transformed function
// against its source, in the style of alive-tv: it prints the verdict
// and, for semantic errors, the counterexample diagnostic.
//
// Usage:
//
//	alivecheck [-paths n] [-budget n] [-workers n] [-stats] source.ll target.ll
//
// Both files may hold whole modules: functions are paired by name and
// validated concurrently across -workers goroutines through the
// default oracle stack (internal/oracle), so duplicate function
// bodies are proven once.
//
// A first SIGINT cancels in-flight verification; functions not yet
// checked report an inconclusive "canceled" verdict. A second SIGINT
// force-kills via the default handler.
//
// Exit status: 0 equivalent, 1 semantic/syntax error, 2 inconclusive,
// 3 usage or source errors, 130 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/par"
)

func main() {
	paths := flag.Int("paths", 0, "max CFG paths (0 = default)")
	budget := flag.Int("budget", 0, "SAT conflict budget (0 = default)")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent verification workers")
	stats := flag.Bool("stats", false, "print verification-engine stats to stderr")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: alivecheck [-paths n] [-budget n] [-workers n] [-stats] source.ll target.ll")
		os.Exit(3)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first SIGINT cancels ctx, restore the default
		// handler so a second SIGINT terminates immediately.
		<-ctx.Done()
		stop()
	}()
	srcBlob, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(3)
	}
	tgtBlob, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(3)
	}
	opts := alive.DefaultOptions()
	if *paths > 0 {
		opts.MaxPaths = *paths
	}
	if *budget > 0 {
		opts.SolverBudget = *budget
	}

	results, checkErr := check(ctx, string(srcBlob), string(tgtBlob), opts, *workers)
	if checkErr != nil && results == nil {
		fmt.Fprintln(os.Stderr, "error:", checkErr)
		os.Exit(3)
	}
	worst := 0
	for _, r := range results {
		if len(results) > 1 {
			fmt.Printf("---- @%s ----\n", r.name)
		}
		switch r.res.Verdict {
		case alive.Equivalent:
			fmt.Println("Transformation seems to be correct!")
		case alive.SemanticError, alive.SyntaxError:
			fmt.Println(r.res.Diag)
			if worst < 1 {
				worst = 1
			}
		case alive.Inconclusive:
			fmt.Println(r.res.Diag)
			if worst < 2 {
				worst = 2
			}
		}
	}
	if *stats {
		ostats, cstats := oracle.Default().OracleStats()
		fmt.Fprintf(os.Stderr, "[%s]\n[%s]\n", ostats, cstats)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "interrupted: partial results above")
		os.Exit(130)
	}
	os.Exit(worst)
}

type funcResult struct {
	name string
	res  alive.Result
}

// check validates every target function against the same-named source
// function, fanning the queries out across the worker pool. The
// single-function case preserves alivecheck's original behavior
// (names need not match). On cancellation it returns the partially
// filled results alongside the context error; unreached functions
// carry a canceled (inconclusive) verdict.
func check(ctx context.Context, srcText, tgtText string, opts alive.Options, workers int) ([]funcResult, error) {
	srcMod, err := ir.Parse(srcText)
	if err != nil {
		return nil, fmt.Errorf("source does not parse: %w", err)
	}
	if err := ir.VerifyModule(srcMod); err != nil {
		return nil, fmt.Errorf("source does not verify: %w", err)
	}
	if len(srcMod.Funcs) == 1 {
		res, err := alive.VerifyTextCtx(ctx, srcText, tgtText, opts)
		if err != nil {
			return nil, err
		}
		return []funcResult{{name: srcMod.Funcs[0].Name(), res: res}}, nil
	}

	srcByName := make(map[string]*ir.Function, len(srcMod.Funcs))
	for _, f := range srcMod.Funcs {
		srcByName[f.Name()] = f
	}
	tgtMod, err := ir.Parse(tgtText)
	if err != nil {
		// An unparsable multi-function target is a syntax error on the
		// whole file, mirroring the single-function diagnostic.
		_, res := alive.Candidate(nil, err)
		return []funcResult{{name: "<module>", res: res}}, nil
	}
	o := oracle.Default()
	out := make([]funcResult, len(tgtMod.Funcs))
	for i, tf := range tgtMod.Funcs {
		out[i] = funcResult{name: tf.Name(), res: alive.CanceledResult(context.Canceled)}
	}
	runErr := par.For(ctx, workers, len(tgtMod.Funcs), func(i int) {
		tf := tgtMod.Funcs[i]
		sf, ok := srcByName[tf.Name()]
		if !ok {
			out[i].res = alive.Result{Verdict: alive.SyntaxError,
				Diag: fmt.Sprintf("ERROR: target function @%s has no source counterpart", tf.Name())}
			return
		}
		if ok, res := alive.Candidate(tf, nil); ok == nil {
			out[i].res = res
			return
		}
		out[i].res = o.Verify(ctx, sf, tf, opts)
	})
	return out, runErr
}
