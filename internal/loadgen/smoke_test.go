package loadgen

import (
	"context"
	"os"
	"testing"
	"time"

	"veriopt/internal/smoketest"
)

func TestMain(m *testing.M) { smoketest.Main(m) }

// TestLoadSmoke is the end-to-end load acceptance gate (`make
// load-smoke`): a serving process driven through all five built-in
// traffic mixes, each graded against its SLO. The process is a
// harness-owned slow worker (smoketest.StartWorker: internal/server
// over a stack whose base sleeps 30ms before verifying), so the
// deadline-heavy mix's 10ms budgets genuinely trip and quantiles
// measure serving behavior, not solver noise.
//
// Hard gates on every mix: zero 5xx, zero worker panics
// (veriopt_panics_total stays 0 — a malformed-IR body must never take
// down a worker), shed rate within bounds; plus the hot-repeat mix's
// cache-hit floor and the deadline-heavy mix's canceled-fraction
// floor.
//
// Each mix's report is logged (go test -v), not checked in: these are
// injected-latency plumbing numbers, not a speed claim. Env-gated like
// the other process smoke: plain `go test ./...` skips it.
func TestLoadSmoke(t *testing.T) {
	if os.Getenv("LOAD_SMOKE") == "" {
		t.Skip("multi-process harness; run via `make load-smoke` (LOAD_SMOKE=1)")
	}
	srv := smoketest.StartWorker(t, smoketest.Worker{Delay: 30 * time.Millisecond})
	defer srv.Stop()

	for _, name := range BuiltinNames() {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunMix(context.Background(), spec, RunConfig{BaseURL: srv.URL})
		if err != nil {
			t.Fatalf("mix %s: %v", name, err)
		}
		t.Logf("\n%s", rep.String())
		for _, v := range rep.Violations {
			t.Errorf("mix %s: SLO violation: %s", name, v)
		}
		// The cross-mix hard gate: nothing in the whole run may have
		// panicked a worker or answered 5xx — including every malformed
		// body.
		if rep.ServerErrors != 0 || rep.PanicsDelta != 0 {
			t.Errorf("mix %s: %d server errors, %d panics — want none", name, rep.ServerErrors, rep.PanicsDelta)
		}
	}
}
