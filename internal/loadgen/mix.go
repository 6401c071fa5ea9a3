// Package loadgen replays recorded or synthetic traffic mixes against
// a running `veriopt serve` (single node or cluster coordinator) and
// grades the run against per-mix SLOs.
//
// A Spec names a traffic mix: how many requests, the op blend
// (verify/optimize/evaluate), the key-reuse structure (hot-repeat vs
// all-distinct), the deadline profile, and the malformed-body
// fraction — plus the SLO the run must meet. Specs synthesize to a
// deterministic []Event stream (gen.go) which play (run.go) drives
// open-loop (fixed arrival rate) or closed-loop (fixed concurrency).
// Event streams serialize to JSON-lines traces, so a synthetic run
// can be recorded once and replayed bit-identically later, and real
// traffic captured elsewhere can be graded under the same SLOs.
//
// The built-in mixes are the four load-smoke gates plus a blended
// one:
//
//	hot-repeat     a small hot key set replayed: the verdict cache
//	               must absorb it (hit-rate SLO)
//	all-distinct   every key unique: worst case for the cache, grades
//	               raw queue/solve throughput
//	deadline-heavy half the requests carry deadlines shorter than the
//	               verification latency: deadlines must genuinely
//	               trip (canceled-fraction SLO), never hang or 5xx
//	malformed-ir   every body is broken in some way: the server must
//	               answer 4xx/syntax-error verdicts with zero 5xx and
//	               zero worker panics
//	mixed          a production-shaped blend of all of the above
//	               across verify/optimize/evaluate
package loadgen

import (
	"fmt"
	"sort"
)

// SLO is the pass/fail contract one mix is graded against. Zero-value
// fields are unasserted except the error/panic caps, which default to
// "none allowed" — the property every mix must hold.
type SLO struct {
	// MaxShedRate caps shed (429) responses as a fraction of requests.
	MaxShedRate float64 `json:"max_shed_rate"`
	// MaxServerErrors caps 5xx responses, absolute (usually 0).
	MaxServerErrors int `json:"max_server_errors"`
	// MaxPanics caps the server's veriopt_panics_total delta across
	// the run (usually 0).
	MaxPanics int `json:"max_panics"`
	// MaxTransportErrors caps client-side transport failures.
	MaxTransportErrors int `json:"max_transport_errors"`
	// MinHitRate, when > 0, requires the server's verdict-cache hit
	// rate over the run (delta of hits/queries) to reach it.
	MinHitRate float64 `json:"min_hit_rate,omitempty"`
	// MaxP99Ms, when > 0, caps the client-observed p99 latency.
	MaxP99Ms float64 `json:"max_p99_ms,omitempty"`
	// MinCanceledFrac, when > 0, requires at least this fraction of
	// requests to come back canceled — the deadline-heavy mix's proof
	// that deadlines genuinely trip instead of being absorbed.
	MinCanceledFrac float64 `json:"min_canceled_frac,omitempty"`
}

// Spec is one traffic mix: synthesis parameters plus the SLO.
type Spec struct {
	Name string `json:"name"`
	// Requests is the event-stream length.
	Requests int `json:"requests"`
	// Concurrency sizes the closed-loop worker pool (ignored when
	// RatePerSec > 0; <= 0 selects 8).
	Concurrency int `json:"concurrency,omitempty"`
	// RatePerSec > 0 selects open-loop pacing: requests fire at fixed
	// arrival times regardless of completions, the honest way to
	// measure a system that sheds (closed-loop pacing slows the
	// client down to whatever the server survives).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// MaxInFlight bounds open-loop concurrency blowup (<= 0 selects
	// 64). Hitting the bound delays arrivals, which shows up honestly
	// in latency.
	MaxInFlight int `json:"max_in_flight,omitempty"`

	// HotFrac is the fraction of verify requests drawn from a small
	// hot key set of HotSetSize samples (<= 0 set size selects 8);
	// the rest walk the corpus so keys stay distinct.
	HotFrac    float64 `json:"hot_frac,omitempty"`
	HotSetSize int     `json:"hot_set_size,omitempty"`
	// MalformedFrac is the fraction of requests with intentionally
	// broken bodies.
	MalformedFrac float64 `json:"malformed_frac,omitempty"`
	// TimeoutMs rides on every request when > 0. ShortTimeoutFrac of
	// requests instead carry ShortTimeoutMs — the deadline-injection
	// knob.
	TimeoutMs        int     `json:"timeout_ms,omitempty"`
	ShortTimeoutFrac float64 `json:"short_timeout_frac,omitempty"`
	ShortTimeoutMs   int     `json:"short_timeout_ms,omitempty"`
	// VerifyWeight/OptimizeWeight/EvaluateWeight blend the ops (all
	// zero selects verify-only).
	VerifyWeight   int `json:"verify_weight,omitempty"`
	OptimizeWeight int `json:"optimize_weight,omitempty"`
	EvaluateWeight int `json:"evaluate_weight,omitempty"`

	// Seed/CorpusN identify the scenario corpus payloads come from
	// (<= 0 select the defaults below). The same (seed, n) always
	// yields the same corpus, so runs are comparable across PRs.
	Seed    int64 `json:"seed,omitempty"`
	CorpusN int   `json:"corpus_n,omitempty"`

	SLO SLO `json:"slo"`
}

// Default corpus identity for the built-in mixes.
const (
	defaultCorpusSeed = 1009
	defaultCorpusN    = 72
)

func (s Spec) withDefaults() Spec {
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	if s.MaxInFlight <= 0 {
		s.MaxInFlight = 64
	}
	if s.HotSetSize <= 0 {
		s.HotSetSize = 8
	}
	if s.Seed == 0 {
		s.Seed = defaultCorpusSeed
	}
	if s.CorpusN <= 0 {
		s.CorpusN = defaultCorpusN
	}
	if s.VerifyWeight <= 0 && s.OptimizeWeight <= 0 && s.EvaluateWeight <= 0 {
		s.VerifyWeight = 1
	}
	return s
}

// builtins are the standing mixes `make load-smoke` gates on. Sizes
// are tuned for a single-core CI runner: large enough that quantiles
// and rates mean something, small enough to finish in seconds.
var builtins = map[string]Spec{
	"hot-repeat": {
		Name: "hot-repeat", Requests: 200, Concurrency: 8,
		HotFrac: 1.0, HotSetSize: 8,
		SLO: SLO{MaxShedRate: 0.05, MinHitRate: 0.75},
	},
	"all-distinct": {
		Name: "all-distinct", Requests: 72, Concurrency: 8,
		SLO: SLO{MaxShedRate: 0.05},
	},
	"deadline-heavy": {
		Name: "deadline-heavy", Requests: 120, Concurrency: 8,
		ShortTimeoutFrac: 0.5, ShortTimeoutMs: 10,
		// Its own corpus seed: sharing keys with the other mixes would
		// let an earlier mix warm the verdict cache, turning every
		// request into an instant hit that no deadline can trip.
		Seed: 2029,
		SLO:  SLO{MaxShedRate: 0.05, MinCanceledFrac: 0.2},
	},
	"malformed-ir": {
		Name: "malformed-ir", Requests: 100, Concurrency: 8,
		MalformedFrac: 1.0,
		SLO:           SLO{MaxShedRate: 0.05},
	},
	"mixed": {
		Name: "mixed", Requests: 200, Concurrency: 8,
		HotFrac: 0.3, MalformedFrac: 0.1,
		ShortTimeoutFrac: 0.1, ShortTimeoutMs: 10,
		VerifyWeight: 16, OptimizeWeight: 3, EvaluateWeight: 1,
		SLO: SLO{MaxShedRate: 0.2},
	},
}

// Builtin returns a named built-in mix spec with defaults applied.
func Builtin(name string) (Spec, error) {
	s, ok := builtins[name]
	if !ok {
		return Spec{}, fmt.Errorf("loadgen: unknown mix %q (have %v)", name, BuiltinNames())
	}
	return s.withDefaults(), nil
}

// BuiltinNames lists the built-in mixes in stable order.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
