package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"veriopt/internal/oracle"
	"veriopt/internal/pipeline"
)

// testStack is the stack the package's tests share: each NewContext
// run re-trains the same curriculum, and proves its verdicts once.
var testStack = oracle.NewStack(oracle.Config{})

var (
	testCtxOnce sync.Once
	testCtx     *Context
)

func sharedCtx(t *testing.T) *Context {
	t.Helper()
	testCtxOnce.Do(func() { testCtx = NewContext(testConfig(), testStack) })
	return testCtx
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CorpusN = 100
	cfg.Stage.Stage1Steps = 6
	cfg.Stage.Stage2Steps = 40
	cfg.Stage.Stage3Steps = 30
	return cfg
}

// TestOneEvaluationPerModelAndPrompt: the tables and figures that read
// the curriculum's models share one validation report per (model,
// prompt): five for these six experiments, which ask for nineteen.
func TestOneEvaluationPerModelAndPrompt(t *testing.T) {
	c := NewContext(testConfig(), testStack)
	for _, id := range []string{"table1", "table2", "table3", "fig6", "fig7", "ablation_verifier"} {
		if _, err := Run(id, c); err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
	}
	if len(c.reports) != 5 {
		t.Errorf("%d memoized reports, want 5: base, model zero and latency generic, warm-up and correctness augmented", len(c.reports))
	}
}

// TestCanceledReportNotKept: an evaluation cut short returns its error
// and leaves nothing memoized, so the next call under a live context
// evaluates afresh and gets the full report.
func TestCanceledReportNotKept(t *testing.T) {
	c := NewContext(testConfig(), testStack)
	res, err := c.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx
	if rep, err := c.report(res.Latency, false); err == nil || rep != nil {
		t.Fatalf("canceled report: got %v, %v; want nil and the context's error", rep, err)
	}
	if len(c.reports) != 0 {
		t.Fatalf("canceled evaluation kept: %d memoized reports", len(c.reports))
	}
	c.Ctx = nil
	got, err := c.report(res.Latency, false)
	if err != nil {
		t.Fatal(err)
	}
	val, err := c.Val()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.EvaluateCtx(context.Background(), testStack, res.Latency, val, false, pipeline.EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Every per-sample outcome and tally, the unexported ones included.
	if got.Skipped != 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("live report after a canceled one:\n got %+v\nwant %+v", *got, *want)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	c := sharedCtx(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := Run(id, c)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if out.id != id {
				t.Errorf("outcome id %q != %q", out.id, id)
			}
			if strings.TrimSpace(out.text) == "" {
				t.Error("empty rendered text")
			}
			if len(out.numbers) == 0 {
				t.Error("no measured numbers exposed")
			}
			rendered := Render(out)
			if !strings.Contains(rendered, out.title) {
				t.Error("render missing title")
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", sharedCtx(t)); err == nil {
		t.Error("unknown id should error")
	}
}

func TestTable1MatchesTableIShape(t *testing.T) {
	out, err := Run("table1", sharedCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	n := out.numbers
	// The base model must be dominated by copies with substantial
	// syntax-error mass — the Table I profile (±20 points at this
	// reduced scale).
	if n["copies_pct"] < 30 || n["copies_pct"] > 85 {
		t.Errorf("copies_pct = %.1f outside Table I band", n["copies_pct"])
	}
	if n["syntax_pct"] < 5 {
		t.Errorf("syntax_pct = %.1f, Table I expects a visible syntax-error mass", n["syntax_pct"])
	}
	if n["different_correct_pct"] > 35 {
		t.Errorf("different_correct_pct = %.1f, base model should rarely optimize", n["different_correct_pct"])
	}
}

func TestTable2BeatsTable1(t *testing.T) {
	t1, err := Run("table1", sharedCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run("table2", sharedCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if t2.numbers["latency_diff_correct_pct"] <= t1.numbers["different_correct_pct"] {
		t.Errorf("trained model (%.1f%%) must beat base (%.1f%%) on different-correct",
			t2.numbers["latency_diff_correct_pct"], t1.numbers["different_correct_pct"])
	}
}

func TestFig6HasAllThreeBuckets(t *testing.T) {
	out, err := Run("fig6", sharedCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	n := out.numbers
	sum := n["latency_better_pct"] + n["latency_worse_pct"] + n["latency_tie_pct"]
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("latency buckets sum to %.1f, want 100", sum)
	}
	if n["veriopt_speedup"] <= 1 {
		t.Errorf("veriopt speedup %.2f, want > 1", n["veriopt_speedup"])
	}
	if n["instcombine_speedup"] <= 1 {
		t.Errorf("instcombine speedup %.2f, want > 1", n["instcombine_speedup"])
	}
	if n["hybrid_latency_gain_pct"] < 0 {
		t.Errorf("hybrid gain %.2f%% negative", n["hybrid_latency_gain_pct"])
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 3}, 10)
	if len([]rune(s)) == 0 {
		t.Error("empty sparkline")
	}
	if sparkline(nil, 10) != "" {
		t.Error("nil series should render empty")
	}
	// Constant series must not panic or divide by zero.
	_ = sparkline([]float64{5, 5, 5}, 10)
}
