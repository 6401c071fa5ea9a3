// Command loadgen replays traffic mixes against a running `veriopt
// serve` (single node or cluster coordinator) and grades each run
// against its SLO, exiting non-zero on any violation.
//
// Typical runs:
//
//	loadgen -url http://127.0.0.1:8723                  # all built-in mixes
//	loadgen -url ... -mix hot-repeat,malformed-ir       # a subset
//	loadgen -url ... -spec mixes.json                   # custom specs (JSON array)
//	loadgen -url ... -mix mixed -record trace.jsonl     # record the stream
//	loadgen -url ... -mix mixed -replay trace.jsonl     # replay it later
//	loadgen -url ... -out report.json                   # persist the report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"veriopt/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "", "target base URL (e.g. http://127.0.0.1:8723)")
	mix := fs.String("mix", "all",
		"comma-separated built-in mixes to run, or 'all' ("+strings.Join(loadgen.BuiltinNames(), ", ")+")")
	specPath := fs.String("spec", "", "JSON file with custom mix specs (a Spec object or array); overrides -mix")
	record := fs.String("record", "", "write each mix's synthesized event stream to this JSON-lines trace (single mix only)")
	replay := fs.String("replay", "", "play this JSON-lines trace instead of synthesizing (paced/graded by the single -mix or -spec entry)")
	out := fs.String("out", "", "write the full report as JSON")
	requests := fs.Int("requests", 0, "override Requests on every selected mix (0 = spec values)")
	concurrency := fs.Int("concurrency", 0, "override Concurrency on every selected mix (0 = spec values)")
	rate := fs.Float64("rate", 0, "override RatePerSec on every selected mix: open-loop pacing (0 = spec values)")
	corpusSeed := fs.Int64("corpus-seed", 0, "override the payload corpus seed (0 = spec values)")
	corpusN := fs.Int("corpus-n", 0, "override the payload corpus size (0 = spec values)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	specs, err := selectSpecs(*specPath, *mix)
	if err != nil {
		return err
	}
	for i := range specs {
		if *requests > 0 {
			specs[i].Requests = *requests
		}
		if *concurrency > 0 {
			specs[i].Concurrency = *concurrency
		}
		if *rate > 0 {
			specs[i].RatePerSec = *rate
		}
		if *corpusSeed != 0 {
			specs[i].Seed = *corpusSeed
		}
		if *corpusN > 0 {
			specs[i].CorpusN = *corpusN
		}
	}
	if (*record != "" || *replay != "") && len(specs) != 1 {
		return fmt.Errorf("-record/-replay need exactly one mix, got %d", len(specs))
	}

	rc := loadgen.RunConfig{BaseURL: strings.TrimRight(*url, "/")}
	bench := &loadgen.BenchOut{GeneratedUnixMilli: time.Now().UnixMilli(), Target: rc.BaseURL}
	for _, spec := range specs {
		var rep *loadgen.MixReport
		switch {
		case *replay != "":
			f, err := os.Open(*replay)
			if err != nil {
				return err
			}
			events, err := loadgen.ReadTrace(f)
			f.Close()
			if err != nil {
				return err
			}
			rep, err = loadgen.RunEvents(ctx, spec, events, rc)
			if err != nil {
				return err
			}
		case *record != "":
			events, err := loadgen.Synthesize(spec)
			if err != nil {
				return err
			}
			f, err := os.Create(*record)
			if err != nil {
				return err
			}
			if err := loadgen.WriteTrace(f, events); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			rep, err = loadgen.RunEvents(ctx, spec, events, rc)
			if err != nil {
				return err
			}
		default:
			rep, err = loadgen.RunMix(ctx, spec, rc)
			if err != nil {
				return err
			}
		}
		fmt.Print(rep.String())
		bench.Mixes = append(bench.Mixes, rep)
	}

	if *out != "" {
		blob, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "loadgen: wrote", *out)
	}
	if !bench.Passed() {
		return fmt.Errorf("SLO violations (see above)")
	}
	return nil
}

// selectSpecs resolves -spec / -mix into the run list.
func selectSpecs(specPath, mix string) ([]loadgen.Spec, error) {
	if specPath != "" {
		blob, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		var specs []loadgen.Spec
		if err := json.Unmarshal(blob, &specs); err != nil {
			var one loadgen.Spec
			if err2 := json.Unmarshal(blob, &one); err2 != nil {
				return nil, fmt.Errorf("%s: not a Spec or []Spec: %v", specPath, err)
			}
			specs = []loadgen.Spec{one}
		}
		for i := range specs {
			if specs[i].Name == "" {
				return nil, fmt.Errorf("%s: spec %d has no name", specPath, i)
			}
		}
		return specs, nil
	}
	names := loadgen.BuiltinNames()
	if mix != "all" {
		names = strings.Split(mix, ",")
	}
	var specs []loadgen.Spec
	for _, n := range names {
		s, err := loadgen.Builtin(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}
