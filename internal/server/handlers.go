package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/costmodel"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/pipeline"
)

// OptionsJSON mirrors alive.Options on the wire: the three limits that
// decide a verdict, each defaulting to alive.DefaultOptions() when
// unset.
type OptionsJSON struct {
	MaxPaths     int `json:"max_paths,omitempty"`
	MaxSteps     int `json:"max_steps,omitempty"`
	SolverBudget int `json:"solver_budget,omitempty"`
}

// metricsJSON mirrors costmodel.Metrics on the wire.
type metricsJSON struct {
	Latency int `json:"latency"`
	ICount  int `json:"icount"`
	Size    int `json:"size"`
}

func metricsOf(m costmodel.Metrics) metricsJSON {
	return metricsJSON{Latency: m.Latency, ICount: m.ICount, Size: m.Size}
}

// errorResponse is the body of every non-2xx response. Line is the
// 1-based line of the request's IR text the parser stopped at, on the
// 400 that answers a source or module that does not parse.
type errorResponse struct {
	Error string `json:"error"`
	Line  int    `json:"line,omitempty"`
}

// parseFailure is that 400's body: the message as it always read, and
// the line where err is an *ir.ParseError.
func parseFailure(what string, err error) errorResponse {
	resp := errorResponse{Error: what + " does not parse: " + err.Error()}
	var pe *ir.ParseError
	if errors.As(err, &pe) {
		resp.Line = pe.Line
	}
	return resp
}

// VerifyRequest asks whether tgt refines src.
type VerifyRequest struct {
	// Src and Tgt are single-function IR texts.
	Src string `json:"src"`
	Tgt string `json:"tgt"`
	// Options overrides the server's default verification limits.
	Options *OptionsJSON `json:"options,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// VerifyResponse is the oracle's verdict.
type VerifyResponse struct {
	Verdict string `json:"verdict"`
	Diag    string `json:"diag,omitempty"`
	// Reason names why an inconclusive verdict is one (alive.Reason);
	// "canceled" is the request deadline, not the query's limits, and a
	// retry with a longer timeout can still prove the query.
	Reason          string            `json:"reason,omitempty"`
	Counterexample  map[string]uint64 `json:"counterexample,omitempty"`
	SolverConflicts int               `json:"solver_conflicts,omitempty"`
}

// optimizeRequest asks the served optimizer to rewrite a module.
type optimizeRequest struct {
	// IR is a whole-module text; every defined function is optimized
	// independently under the paper's fallback rule.
	IR        string `json:"ir"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// functionResult is the per-function outcome of /v1/optimize.
type functionResult struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
	Diag    string `json:"diag,omitempty"`
	// UsedFallback reports that the input was kept because the
	// candidate failed to parse or to verify (the deployment rule).
	UsedFallback bool        `json:"used_fallback"`
	Reason       string      `json:"reason,omitempty"`
	Base         metricsJSON `json:"base"`
	Out          metricsJSON `json:"out"`
	Speedup      float64     `json:"speedup"`
}

// optimizeResponse carries the rewritten module and per-function
// metrics.
type optimizeResponse struct {
	Module    string           `json:"module"`
	Functions []functionResult `json:"functions"`
}

// evaluateRequest names a deterministic corpus slice to evaluate.
type evaluateRequest struct {
	// Seed and N identify the generated corpus (cached server-side).
	Seed int64 `json:"seed"`
	N    int   `json:"n"`
	// Offset/Count select a slice of the corpus; Count == 0 means
	// through the end.
	Offset    int  `json:"offset,omitempty"`
	Count     int  `json:"count,omitempty"`
	Augmented bool `json:"augmented,omitempty"`
	TimeoutMs int  `json:"timeout_ms,omitempty"`
}

// evaluateResponse summarizes the (possibly partial) report.
type evaluateResponse struct {
	Correct      int `json:"correct"`
	Copies       int `json:"copies"`
	Semantic     int `json:"semantic"`
	Syntax       int `json:"syntax"`
	Inconclusive int `json:"inconclusive"`
	// Skipped counts samples the deadline cut off — unreached or with
	// canceled in-flight verdicts. The fractions below are over
	// genuinely evaluated samples only.
	Skipped              int     `json:"skipped"`
	Total                int     `json:"total"`
	CorrectFrac          float64 `json:"correct_frac"`
	DifferentCorrectFrac float64 `json:"different_correct_frac"`
	GeomeanSpeedup       float64 `json:"geomean_speedup"`
	// Canceled marks a partial report (the request deadline expired
	// mid-run).
	Canceled bool `json:"canceled,omitempty"`
}

// ceilSeconds converts a duration to whole seconds for Retry-After
// headers, rounding up so a sub-second hint never renders as the
// meaningless "Retry-After: 0".
func ceilSeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + time.Second - 1) / time.Second)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// decode reads and parses the request body, answering 400 itself on
// failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// serveQueued runs fn through the bounded work queue under the
// request deadline, shedding with 429 + Retry-After when the queue is
// full and 503 while draining. fn returns the response status and
// body.
//
// Deadline semantics are honest in both directions: a negative
// timeout_ms is a client error (400), and a positive one is clamped
// to the server's MaxTimeout so no request can talk itself past the
// operator's ceiling. A panicking fn answers 500 instead of killing
// the queue worker (and with it the whole process).
func (s *Server) serveQueued(w http.ResponseWriter, r *http.Request, timeoutMs int, fn func(ctx context.Context) (int, any)) {
	if timeoutMs < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "timeout_ms must be non-negative"})
		return
	}
	ctx := r.Context()
	d := min(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if timeoutMs > 0 {
		// Clamp in milliseconds, before converting: past about 9.2e12 ms
		// the product with time.Millisecond wraps, to no deadline or to a
		// few microseconds.
		d = s.cfg.MaxTimeout
		if int64(timeoutMs) <= s.cfg.MaxTimeout.Milliseconds() {
			d = time.Duration(timeoutMs) * time.Millisecond
		}
	}
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var (
		status int
		body   any
	)
	enqueuedAt := time.Now()
	j := &job{done: make(chan struct{})}
	j.run = func() {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				status = http.StatusInternalServerError
				body = errorResponse{Error: fmt.Sprintf("internal error: %v", rec)}
			}
		}()
		if span := spanOf(r.Context()); span != nil {
			span.queueWait = time.Since(enqueuedAt)
		}
		status, body = fn(ctx)
	}
	switch s.enqueue(j) {
	case queueFull:
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(retryAfter)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "work queue full, retry later"})
		return
	case queueDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	<-j.done
	writeJSON(w, status, body)
}

// verifyOptions is alive.DefaultOptions() with the limits a /v1/verify
// request sets in place of the defaults.
func verifyOptions(o *OptionsJSON) alive.Options {
	opts := alive.DefaultOptions()
	if o == nil {
		return opts
	}
	if o.MaxPaths > 0 {
		opts.MaxPaths = o.MaxPaths
	}
	if o.MaxSteps > 0 {
		opts.MaxSteps = o.MaxSteps
	}
	if o.SolverBudget > 0 {
		opts.SolverBudget = o.SolverBudget
	}
	return opts
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !s.decode(w, r, &req) {
		return
	}
	// A broken source is harness misuse (same contract as
	// alive.VerifyText): reject before queueing. A broken target is a
	// model failure and yields a syntax_error verdict.
	src, err := ir.ParseFunc(req.Src)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, parseFailure("source", err))
		return
	}
	if err := ir.VerifyFunc(src); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "source does not verify: " + err.Error()})
		return
	}
	opts := verifyOptions(req.Options)
	s.serveQueued(w, r, req.TimeoutMs, func(ctx context.Context) (int, any) {
		tgt, res := alive.Candidate(ir.ParseFunc(req.Tgt))
		if tgt != nil {
			res = s.oracle.Verify(ctx, src, tgt, opts)
		}
		return http.StatusOK, VerifyResponse{
			Verdict:         res.Verdict.String(),
			Diag:            res.Diag,
			Reason:          res.Reason().String(),
			Counterexample:  res.Counterexample,
			SolverConflicts: res.SolverConflicts,
		}
	})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, err := ir.Parse(req.IR)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, parseFailure("module", err))
		return
	}
	if err := ir.VerifyModule(m); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "module does not verify: " + err.Error()})
		return
	}
	s.serveQueued(w, r, req.TimeoutMs, func(ctx context.Context) (int, any) {
		resp := optimizeResponse{Functions: make([]functionResult, 0, len(m.Funcs))}
		for i, f := range m.Funcs {
			out, fr := s.optimizeFunc(ctx, f)
			out.NameStr = f.NameStr
			m.Funcs[i] = out
			resp.Functions = append(resp.Functions, fr)
		}
		resp.Module = ir.Print(m)
		return http.StatusOK, resp
	})
}

// optimizeFunc puts one function through the deployment rule
// (oracle.Accept: trained model if loaded, else instcombine; the input
// is kept unless the verifier proves the candidate) and reports what
// came back.
func (s *Server) optimizeFunc(ctx context.Context, f *ir.Function) (*ir.Function, functionResult) {
	out, res := oracle.Accept(ctx, s.oracle, s.cfg.Model, f, nil, alive.DefaultOptions())
	base, after := costmodel.Measure(f), costmodel.Measure(out)
	return out, functionResult{
		Name:         f.Name(),
		Verdict:      res.Verdict.String(),
		Diag:         res.Diag,
		UsedFallback: out == f,
		Reason:       res.Reason().String(),
		Base:         metricsOf(base),
		Out:          metricsOf(after),
		Speedup:      costmodel.Speedup(base, after),
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.N <= 0 || req.N > evalMaxN {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("n must be in [1, %d]", evalMaxN)})
		return
	}
	if req.Offset < 0 || req.Count < 0 || req.Offset > req.N {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "offset/count out of range"})
		return
	}
	s.serveQueued(w, r, req.TimeoutMs, func(ctx context.Context) (int, any) {
		corpus, err := s.corpus(req.Seed, req.N)
		if err != nil {
			return http.StatusInternalServerError, errorResponse{Error: "corpus generation: " + err.Error()}
		}
		slice := corpus[req.Offset:]
		if req.Count > 0 && req.Count < len(slice) {
			slice = slice[:req.Count]
		}
		rep, runErr := pipeline.EvaluateCtx(ctx, s.oracle, s.evalPol, slice, req.Augmented, pipeline.EvalConfig{
			Verify:  alive.DefaultOptions(),
			Workers: 1, // the queue's worker pool is the concurrency governor
		})
		return http.StatusOK, evaluateResponse{
			Correct:              rep.Correct,
			Copies:               rep.Copies,
			Semantic:             rep.Semantic,
			Syntax:               rep.Syntax,
			Inconclusive:         rep.Inconclusive,
			Skipped:              rep.Skipped,
			Total:                rep.Total(),
			CorrectFrac:          rep.CorrectFrac(),
			DifferentCorrectFrac: rep.DifferentCorrectFrac(),
			GeomeanSpeedup:       pipeline.GeomeanSpeedup(rep),
			Canceled:             runErr != nil,
		}
	})
}

// healthzResponse is the /healthz JSON body: enough identity and load
// state for a cluster coordinator's replica probes (and the cluster
// smoke harness) to assert on more than a bare 200.
type healthzResponse struct {
	OK      bool   `json:"ok"`
	Version string `json:"version"`
	// Role is "worker" for a plain serving process, "coordinator" for
	// the cluster front.
	Role string `json:"role"`
	// QueueDepth/QueueCapacity report the bounded work queue's load.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// StoreAttached reports whether a durable verdict store backs the
	// oracle (-store-dir).
	StoreAttached bool `json:"store_attached"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		OK:            true,
		Version:       version,
		Role:          s.cfg.Role,
		QueueDepth:    s.queueDepth(),
		QueueCapacity: s.cfg.QueueSize,
	}
	if src, ok := s.oracle.(oracle.StoreSource); ok && src.VStore() != nil {
		resp.StoreAttached = true
	}
	writeJSON(w, http.StatusOK, resp)
}
