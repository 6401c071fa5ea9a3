package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"veriopt/internal/server"
)

// RunConfig wires a play call to its target server.
type RunConfig struct {
	// BaseURL is the serve process (or cluster coordinator) root,
	// e.g. "http://127.0.0.1:8723".
	BaseURL string
	// Client, when nil, selects a shared keep-alive client (connection
	// reuse keeps client-side handshake cost out of the measurement).
	Client *http.Client
}

// Result is one played event's outcome.
type Result struct {
	Index    int
	Scenario string
	Op       Op
	// Status is the HTTP status (0 on transport error).
	Status  int
	Latency time.Duration
	// Shed marks a 429, Canceled a response that reports the request
	// deadline expired mid-work, Repeat an event whose coalescing key
	// already appeared earlier in the stream (the cache's chance to
	// hit). TransportErr carries a client-side failure.
	Shed         bool
	Canceled     bool
	Repeat       bool
	Malformed    bool
	TransportErr string
}

func defaultClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 64,
		},
	}
}

// play drives the event stream against the target. RatePerSec > 0
// selects open-loop pacing (arrivals at fixed times, concurrency
// bounded only by MaxInFlight); otherwise a closed loop of
// Concurrency workers. Results are positional: results[i] is
// events[i]'s outcome. Cancellation stops scheduling new requests;
// in-flight ones finish and the partial results return with ctx's
// error.
func play(ctx context.Context, events []Event, spec Spec, rc RunConfig) ([]Result, error) {
	spec = spec.withDefaults()
	client := rc.Client
	if client == nil {
		client = defaultClient()
	}
	results := make([]Result, len(events))
	// Repeat detection runs over the stream in order, before any
	// requests race: an event repeats if its coalescing key appeared
	// earlier.
	seen := make(map[string]bool, len(events))
	for i := range events {
		k := events[i].key()
		results[i].Repeat = seen[k]
		seen[k] = true
	}

	var wg sync.WaitGroup
	bound := spec.Concurrency
	if spec.RatePerSec > 0 {
		bound = spec.MaxInFlight
	}
	sem := make(chan struct{}, bound)
	var interval time.Duration
	if spec.RatePerSec > 0 {
		interval = time.Duration(float64(time.Second) / spec.RatePerSec)
	}
	start := time.Now()
	var err error
	for i := range events {
		if interval > 0 {
			// Open loop: fire at the scheduled arrival time no matter
			// how the previous requests are doing.
			if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := &results[i]
			r.Index = i
			r.Scenario = events[i].Scenario
			r.Op = events[i].Op
			r.Malformed = events[i].Malformed
			playEvent(ctx, client, rc.BaseURL, &events[i], r)
		}(i)
	}
	wg.Wait()
	return results, err
}

// playEvent issues one event and classifies the outcome into r.
func playEvent(ctx context.Context, client *http.Client, baseURL string, e *Event, r *Result) {
	var path string
	var body any
	switch e.Op {
	case opVerify:
		path = "/v1/verify"
		body = server.VerifyRequest{Src: e.Src, Tgt: e.Tgt, TimeoutMs: e.TimeoutMs}
	case opOptimize:
		path = "/v1/optimize"
		body = server.OptimizeRequest{IR: e.IR, TimeoutMs: e.TimeoutMs}
	case opEvaluate:
		path = "/v1/evaluate"
		body = server.EvaluateRequest{Seed: e.Seed, N: e.N, Offset: e.Offset, Count: e.Count, TimeoutMs: e.TimeoutMs}
	default:
		r.TransportErr = fmt.Sprintf("unknown op %q", e.Op)
		return
	}
	blob, err := json.Marshal(body)
	if err != nil {
		r.TransportErr = err.Error()
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(blob))
	if err != nil {
		r.TransportErr = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	r.Latency = time.Since(t0)
	if err != nil {
		r.TransportErr = err.Error()
		return
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	r.Latency = time.Since(t0) // full response read included
	if err != nil {
		r.TransportErr = err.Error()
		return
	}
	r.Status = resp.StatusCode
	r.Shed = resp.StatusCode == http.StatusTooManyRequests
	if resp.StatusCode == http.StatusOK {
		// All three 200 bodies mark deadline expiry with a canceled
		// flag — top-level or per-function.
		var c struct {
			Canceled  bool `json:"canceled"`
			Functions []struct {
				Canceled bool `json:"canceled"`
			} `json:"functions"`
		}
		if json.Unmarshal(out, &c) == nil {
			r.Canceled = c.Canceled
			for _, f := range c.Functions {
				r.Canceled = r.Canceled || f.Canceled
			}
		}
	}
}

// RunMix synthesizes a spec's event stream and runs it end to end:
// scrape, play, scrape, grade. This is the one call the loadgen CLI
// and the load smoke make per mix.
func RunMix(ctx context.Context, spec Spec, rc RunConfig) (*MixReport, error) {
	events, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	return RunEvents(ctx, spec, events, rc)
}

// RunEvents plays an already-built event stream (synthetic or a
// replayed trace) under a spec's pacing and SLO, bracketing it with
// /metrics scrapes so the report carries the server-side deltas. A
// counter that decreased between the scrapes (the target restarted
// mid-run) is an error, not a report.
func RunEvents(ctx context.Context, spec Spec, events []Event, rc RunConfig) (*MixReport, error) {
	client := rc.Client
	if client == nil {
		client = defaultClient()
		rc.Client = client
	}
	before, err := scrapeCounters(ctx, client, rc.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run scrape: %w", err)
	}
	t0 := time.Now()
	results, playErr := play(ctx, events, spec, rc)
	wall := time.Since(t0)
	after, err := scrapeCounters(context.WithoutCancel(ctx), client, rc.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: post-run scrape: %w", err)
	}
	delta, err := after.Delta(before)
	if err != nil {
		return nil, err
	}
	return buildReport(spec, results, wall, delta), playErr
}
