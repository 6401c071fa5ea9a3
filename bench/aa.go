package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A self-check: for every workload, two interleaved sets
// (A B A B …) of n end-to-end runs of this same binary, each run its own
// process with its own seed — what the acceptance driver does. Per
// workload and metric it prints both medians, how much worse B's is
// than A's, each set's interquartile spread, and the bound; a difference
// or a spread beyond the bound makes the exit code 1. A metric that
// cannot hold its bound here does not belong among the end-to-end
// metrics. The timings, which could not, are printed the same way
// without a bound. setup_s could not either, but the acceptance
// contract requires it among the end-to-end metrics and holds it to
// agreement of the medians only; so does this check, and prints its
// spread.
func runAA(n, seconds int, storeDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	excess := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			rec, err := childRun(self, w.name, defaultSeed+int64(i), seconds, storeDir)
			if err != nil {
				fmt.Fprintf(stderr, "bench: aa: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			for _, m := range []map[string]value{rec.Result.Metrics, rec.Reported} {
				for name, v := range m {
					sets[i%2][name] = append(sets[i%2][name], v.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "%-13s %-14s %12s %12s %8s %8s %8s %6s\n",
			w.name, "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], timings...) {
			a, b := sets[0][d.Name], sets[1][d.Name]
			worse := worseBy(d, median(a), median(b))
			sa, sb := spread(a), spread(b)
			bound, flag := "     -", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", 100*d.Bound)
				if worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
					flag = "  EXCESS"
					excess++
				}
			}
			fmt.Fprintf(stdout, "%-13s %-14s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %s%s\n",
				"", d.Name, median(a), median(b), 100*worse, 100*sa, 100*sb, bound, flag)
		}
	}
	if excess > 0 {
		fmt.Fprintf(stdout, "aa: %d workload x metric pairs exceed their bound\n", excess)
		return 1
	}
	fmt.Fprintln(stdout, "aa: every workload x end-to-end metric pair is within its bound")
	return 0
}

// childRun runs one end-to-end run as its own process and reads the
// record it leaves in bench/out.
func childRun(self, workload string, seed int64, seconds int, storeDir string) (record, error) {
	var rec record
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--store-dir", storeDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rec, err
	}
	data, err := os.ReadFile(recordPath(workload, 0))
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("decode run record: %w", err)
	}
	if rec.Seed != seed || !rec.Result.Correct {
		return rec, fmt.Errorf("run record of seed %d, correct=%v; want seed %d, correct", rec.Seed, rec.Result.Correct, seed)
	}
	return rec, nil
}

// worseBy is how much worse than a the value b is, as a share of a, in
// the metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method).
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := exclusiveQuantile(v, 0.25), exclusiveQuantile(v, 0.75)
	return (q3 - q1) / m
}
