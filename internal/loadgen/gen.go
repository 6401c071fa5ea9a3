package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

// Op names the endpoint an event hits.
type Op string

const (
	opVerify   Op = "verify"
	opOptimize Op = "optimize"
	opEvaluate Op = "evaluate"
)

// ScenarioMalformed labels intentionally broken payloads in the
// per-scenario accounting (the corpus scenarios label everything
// else).
const ScenarioMalformed = "malformed"

// Event is one request to play. Events are self-contained — the full
// payload rides along — so a recorded trace replays with no corpus
// regeneration and no version skew.
type Event struct {
	Op Op `json:"op"`
	// Scenario is the payload's corpus-taxonomy label (or
	// ScenarioMalformed), carried into per-scenario accounting.
	Scenario string `json:"scenario"`
	// Src/Tgt are the verify payload.
	Src string `json:"src,omitempty"`
	Tgt string `json:"tgt,omitempty"`
	// IR is the optimize payload (whole-module text).
	IR string `json:"ir,omitempty"`
	// Seed/N/Offset/Count are the evaluate payload.
	Seed   int64 `json:"seed,omitempty"`
	N      int   `json:"n,omitempty"`
	Offset int   `json:"offset,omitempty"`
	Count  int   `json:"count,omitempty"`
	// TimeoutMs rides on the request when > 0.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Malformed marks a body built to be rejected: the expected
	// outcome is a 4xx or a syntax-error verdict, never a 5xx.
	Malformed bool `json:"malformed,omitempty"`
}

// key is the coalescing identity of an event — two events with equal
// keys should hit the same verdict-cache slot.
func (e Event) key() string {
	return string(e.Op) + "\x00" + e.Src + "\x00" + e.Tgt + "\x00" + e.IR +
		fmt.Sprintf("\x00%d/%d/%d/%d", e.Seed, e.N, e.Offset, e.Count)
}

// malformedBodies are the broken payload shapes the malformed mix
// cycles through, each attacking a different parse/validate layer.
var malformedBodies = []struct {
	scenarioNote string
	src, tgt     string
}{
	{"empty", "", ""},
	{"garbage", "not ir at all \x00\x01", "also not ir"},
	{"truncated", "define i32 @f(i32 %0) {\n  %2 = add i32 %0,", "define i32 @f(i32 %0) {\n  ret i32 %0\n}\n"},
	{"bad-target", "define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n", "define i32 @f(i32 %0) {\n  %2 = mul i32 %0\n  ret i32 %2\n}\n"},
	{"undefined-value", "define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n", "define i32 @f(i32 %0) {\n  ret i32 %9\n}\n"},
}

// Synthesize expands a mix spec into its deterministic event stream.
// Payloads come from the scenario corpus identified by (Seed,
// CorpusN); the stream depends only on the spec, so the same spec
// always replays the same traffic.
func Synthesize(spec Spec) ([]Event, error) {
	spec = spec.withDefaults()
	if spec.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: mix %q: Requests must be positive", spec.Name)
	}
	samples, err := dataset.Generate(dataset.Config{Seed: spec.Seed, N: spec.CorpusN})
	if err != nil {
		return nil, fmt.Errorf("loadgen: corpus: %w", err)
	}
	rng := rand.New(rand.NewSource(spec.Seed + int64(spec.Requests)))
	hot := spec.HotSetSize
	if hot > len(samples) {
		hot = len(samples)
	}
	totalW := spec.VerifyWeight + spec.OptimizeWeight + spec.EvaluateWeight
	events := make([]Event, 0, spec.Requests)
	distinct := hot // cursor walking the corpus beyond the hot set
	for i := 0; i < spec.Requests; i++ {
		var e Event
		switch {
		case rng.Float64() < spec.MalformedFrac:
			mb := malformedBodies[i%len(malformedBodies)]
			e = Event{Op: opVerify, Scenario: ScenarioMalformed, Src: mb.src, Tgt: mb.tgt, Malformed: true}
		default:
			switch w := rng.Intn(totalW); {
			case w < spec.VerifyWeight:
				s := samples[distinct%len(samples)]
				if rng.Float64() < spec.HotFrac && hot > 0 {
					s = samples[rng.Intn(hot)]
				} else {
					distinct++
				}
				e = Event{Op: opVerify, Scenario: s.Scenario, Src: s.O0Text, Tgt: s.RefText}
			case w < spec.VerifyWeight+spec.OptimizeWeight:
				s := samples[rng.Intn(len(samples))]
				e = Event{Op: opOptimize, Scenario: s.Scenario, IR: ir.Print(s.Module)}
			default:
				// A tiny deterministic corpus slice; the server caches
				// the generated corpus by (seed, n).
				e = Event{Op: opEvaluate, Scenario: "evaluate", Seed: spec.Seed, N: 8, Offset: rng.Intn(4), Count: 2}
			}
		}
		e.TimeoutMs = spec.TimeoutMs
		if spec.ShortTimeoutFrac > 0 && rng.Float64() < spec.ShortTimeoutFrac {
			e.TimeoutMs = spec.ShortTimeoutMs
		}
		events = append(events, e)
	}
	return events, nil
}

// WriteTrace serializes events as JSON lines — the record side of
// record/replay.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSON-lines trace back into an event stream.
func ReadTrace(r io.Reader) ([]Event, error) {
	var events []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("loadgen: trace line %d: %w", len(events)+1, err)
		}
		if e.Op == "" {
			return nil, fmt.Errorf("loadgen: trace line %d: missing op", len(events)+1)
		}
		events = append(events, e)
	}
}
