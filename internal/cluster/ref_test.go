package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/server"
	"veriopt/internal/vcache"
)

// refAttemptResult is one replica attempt's outcome in refVerifyRemote.
type refAttemptResult struct {
	res alive.Result
	err error
	// transport marks a connection-level failure (dial, reset, EOF) —
	// the demotion signal. HTTP-level refusals (429 shed, 503 drain)
	// re-route without demoting: a shedding replica is alive.
	transport bool
	rep       *replica
}

// refVerifyRemote is Coordinator.VerifyRemote as PR 14 wrote it and
// bf8890d shipped it, with Config.DisableHedge set: an attempt is a
// goroutine that deposits its outcome on a channel, and a select loop
// over the caller's context, a retry timer and that channel decides
// what happens next. What only a hedge could reach (the hedge timer's
// case, the hedge flag, the latency sample a win fed to the hedge delay)
// is left out; every other line is the shipped one. The loop that
// replaced it must agree with it (TestLoopVsStateMachine).
func refVerifyRemote(c *Coordinator, ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
	srcText, tgtText := ir.CanonicalText(src), ir.CanonicalText(tgt)
	key := vcache.Key{
		Src:  ir.FingerprintText(srcText),
		Dst:  ir.FingerprintText(tgtText),
		Opts: opts,
	}.Fingerprint()
	order := c.healthyFirst(c.ring.order(key))
	body, err := json.Marshal(server.VerifyRequest{
		Src:     srcText,
		Tgt:     tgtText,
		Options: &server.OptionsJSON{MaxPaths: opts.MaxPaths, MaxSteps: opts.MaxSteps, SolverBudget: opts.SolverBudget},
	})
	if err != nil {
		return alive.Result{}, fmt.Errorf("cluster: marshal request: %w", err)
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing attempts' requests

	// Buffered to the attempt count so losing attempts can always
	// deposit their outcome and exit — no goroutine is ever left
	// blocked on this channel after VerifyRemote returns.
	results := make(chan refAttemptResult, len(order))
	launch := func(i int) {
		rep := c.reps[order[i]]
		rep.requests.Add(1)
		go func() {
			res, err, transport := c.post(dctx, rep, body)
			results <- refAttemptResult{res: res, err: err, transport: transport, rep: rep}
		}()
	}

	launch(0)
	next, inflight := 1, 1

	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	var retryC <-chan time.Time
	backoff := retryBackoff

	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return alive.CanceledResult(ctx.Err()), nil
		case <-retryC:
			retryC = nil
			if next < len(order) {
				c.reps[order[next]].retries.Add(1)
				launch(next)
				next++
				inflight++
			}
		case a := <-results:
			inflight--
			if a.err == nil {
				c.markUp(a.rep, "answered a query")
				return a.res, nil
			}
			a.rep.errors.Add(1)
			if a.transport {
				c.markDown(a.rep, a.err.Error())
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(order) && retryC == nil {
				// Re-route after a backoff so a fleet-wide hiccup
				// (everyone restarting) is ridden out instead of
				// burned through in microseconds.
				if retryTimer == nil {
					retryTimer = time.NewTimer(backoff)
				} else {
					retryTimer.Reset(backoff)
				}
				retryC = retryTimer.C
				backoff *= 2
			} else if inflight == 0 && next >= len(order) {
				return alive.Result{}, fmt.Errorf("cluster: all %d replicas failed: %w", len(order), firstErr)
			}
		}
	}
}

// A scripted replica does one of these to every query it is sent.
const (
	scriptAnswers   = iota // 200 and a verdict
	scriptSheds            // 429: alive, refusing
	scriptRefused          // listener closed: the dial fails
	scriptTruncated        // 200, half a body, then a half-close
	scriptCount
)

var scriptNames = [scriptCount]string{"answers", "sheds", "refused", "truncated"}

// dispatchOutcome is everything one query leaves behind that a caller,
// a replica or the coordinator's /metrics can see.
type dispatchOutcome struct {
	verdict  alive.Verdict
	reason   alive.Reason
	err      string
	hits     []int // fleet index of each worker hit, in arrival order
	requests []uint64
	errors   []uint64
	retries  []uint64
	healthy  []bool
}

// TestLoopVsStateMachine: for every fleet of one to three replicas with
// each replica scripted as answering, shedding, refusing the connection
// or cutting its body short (4 + 16 + 64 fleets), the shipped dispatch
// and the reference state machine leave the same outcome: the verdict
// or the error text, which workers were hit and in what order, each
// replica's requests/errors/retries counters and its health. Both must
// also have waited out the doubling backoff between failed attempts,
// which no counter shows.
func TestLoopVsStateMachine(t *testing.T) {
	src, tgt := parsePair(t)
	opts := alive.DefaultOptions()
	fleets := 0
	for n := 1; n <= 3; n++ {
		total := 1
		for i := 0; i < n; i++ {
			total *= scriptCount
		}
		for code := 0; code < total; code++ {
			fleets++
			var (
				mu      sync.Mutex
				hits    []int
				name    string
				workers = make([]*fakeWorker, n)
				urls    = make([]string, n)
			)
			for i, c := 0, code; i < n; i, c = i+1, c/scriptCount {
				i, w := i, newFakeWorker(t)
				w.onHit = func() { mu.Lock(); hits = append(hits, i); mu.Unlock() }
				switch c % scriptCount {
				case scriptSheds:
					w.shed.Store(true)
				case scriptRefused:
					w.ts.Close()
				case scriptTruncated:
					w.truncate.Store(true)
				}
				name += scriptNames[c%scriptCount] + " "
				workers[i], urls[i] = w, w.ts.URL
			}
			run := func(dispatch func(*Coordinator, context.Context, *ir.Function, *ir.Function, alive.Options) (alive.Result, error)) dispatchOutcome {
				hits = nil
				// The same URLs build the same ring, so both dispatches
				// walk the fleet in the same order.
				c := mustNew(t, Config{Replicas: urls})
				t0 := time.Now()
				res, err := dispatch(c, context.Background(), src, tgt, opts)
				elapsed := time.Since(t0)
				out := dispatchOutcome{verdict: res.Verdict, reason: res.Reason()}
				if err != nil {
					out.err = err.Error()
				}
				mu.Lock()
				out.hits = append([]int(nil), hits...)
				mu.Unlock()
				var failed uint64
				for _, rep := range c.reps {
					out.requests = append(out.requests, rep.requests.Load())
					out.errors = append(out.errors, rep.errors.Load())
					out.retries = append(out.retries, rep.retries.Load())
					out.healthy = append(out.healthy, rep.healthy.Load())
					failed += rep.errors.Load()
				}
				// A failure with a replica left to try is followed by a
				// wait of 2 ms, 4 ms, ...
				waits := min(int(failed), n-1)
				if floor := retryBackoff * time.Duration(1<<waits-1); elapsed < floor {
					t.Errorf("fleet [ %s]: answered in %v after %d failed attempts; the backoff alone is %v", name, elapsed, failed, floor)
				}
				return out
			}
			want := run(refVerifyRemote)
			got := run((*Coordinator).VerifyRemote)
			if w, g := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got); w != g {
				t.Errorf("fleet [ %s]:\n  state machine %s\n  shipped       %s", name, w, g)
			}
			for _, w := range workers {
				w.ts.Close()
			}
		}
	}
	if fleets != 84 {
		t.Fatalf("compared %d fleets, want 84", fleets)
	}
}
