package alive

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"veriopt/internal/bv"
	"veriopt/internal/ir"
	"veriopt/internal/sat"
)

// Verdict is the four-way outcome of translation validation, matching
// the paper's Table I/II categories.
type Verdict int

// Verdict values.
const (
	// Equivalent: the target provably refines the source.
	Equivalent Verdict = iota
	// SemanticError: a counterexample input distinguishes the two.
	SemanticError
	// SyntaxError: the target failed to parse or structurally verify.
	SyntaxError
	// Inconclusive: resource limits or unsupported constructs.
	Inconclusive
)

var verdictNames = [...]string{"equivalent", "semantic_error", "syntax_error", "inconclusive"}

// String returns a stable lowercase verdict name.
func (v Verdict) String() string { return verdictNames[v] }

// ParseVerdict is String's inverse, for verdicts read off the wire.
func ParseVerdict(name string) (Verdict, bool) {
	for v, n := range verdictNames {
		if n == name {
			return Verdict(v), true
		}
	}
	return 0, false
}

// Result is the outcome of a verification query.
type Result struct {
	Verdict Verdict
	// Diag is an Alive2-style diagnostic message. Empty for Equivalent
	// (Alive2 prints "Transformation seems to be correct!").
	Diag string
	// Counterexample maps parameter names (without %) to input bit
	// patterns that expose a semantic error.
	Counterexample map[string]uint64
	// SolverConflicts counts total SAT conflicts spent.
	SolverConflicts int
}

// Reason says why a verdict is Inconclusive. Result.Reason reads it off
// the diag, its one record: Eq. 2 BLEU-scores the diag and vstore
// persists it, so a Result rebuilt from text still carries its reason.
type Reason int

// Reason values, in the order String and the oracle's counters use.
const (
	NoReason       Reason = iota // the verdict is not Inconclusive
	ConflictBudget               // a refinement query spent Options.SolverBudget
	PathLimit                    // execution took Options.MaxPaths edges
	StepLimit                    // execution visited Options.MaxSteps instructions
	Unsupported                  // a construct outside the validated subset
	// Canceled: the query's context ended, not its own limits. Such a
	// result is transient: never memoized (vcache skips it, vstore
	// refuses it), and a re-run under a live context can still prove it.
	Canceled
)

var reasonNames = [...]string{"", "conflict_budget", "path_limit", "step_limit", "unsupported", "canceled"}

// String returns a stable lowercase reason name, "" for NoReason.
func (r Reason) String() string { return reasonNames[r] }

// The diag prefixes Result.Reason reads; every diag of those reasons is
// written from them. Any other Inconclusive diag is Unsupported.
const (
	diagConflictBudget = "ERROR: solver budget exhausted"
	diagPathLimit      = "ERROR: resource limit: path budget exhausted"
	diagStepLimit      = "ERROR: resource limit: step budget exhausted"
	diagCanceled       = "ERROR: verification canceled: "
)

// Reason reports why r is Inconclusive, NoReason for any other verdict.
func (r Result) Reason() Reason {
	if r.Verdict != Inconclusive {
		return NoReason
	}
	switch {
	case strings.HasPrefix(r.Diag, diagConflictBudget):
		return ConflictBudget
	case strings.HasPrefix(r.Diag, diagPathLimit):
		return PathLimit
	case strings.HasPrefix(r.Diag, diagStepLimit):
		return StepLimit
	case strings.HasPrefix(r.Diag, diagCanceled):
		return Canceled
	}
	return Unsupported
}

// CanceledResult builds the verdict returned when a query's context
// ends mid-verification. err should be the context's error.
func CanceledResult(err error) Result {
	msg := "context ended"
	if err != nil {
		msg = err.Error()
	}
	return Result{Verdict: Inconclusive, Diag: diagCanceled + msg}
}

// Options controls verification limits.
//
// Options must remain a comparable value type (plain scalar fields,
// no slices/maps/pointers): it is part of the verdict-cache key in
// internal/vcache, and two queries with equal Options must be
// interchangeable.
type Options struct {
	// MaxPaths bounds the CFG edges taken per function (the states put
	// on the executor's worklist). States meeting at a block merge, so
	// acyclic code takes an edge once per distinct call count and only
	// an unrolled loop or a very large function reaches the bound.
	MaxPaths int
	// MaxSteps bounds total symbolically executed instructions.
	MaxSteps int
	// SolverBudget bounds SAT conflicts per query (0 = unlimited).
	SolverBudget int
}

// Compile-time guarantee that Options stays usable as a map key.
var _ = map[Options]struct{}{}

// DefaultOptions mirror Alive2's bounded-validation posture: generous
// enough for peephole-sized functions, finite for loops.
func DefaultOptions() Options {
	return Options{MaxPaths: 512, MaxSteps: 4096, SolverBudget: 200000}
}

// VerifyText validates that tgtText refines srcText, where both hold
// a single function. A target that fails to parse or verify
// structurally yields SyntaxError; all other outcomes follow the
// semantic check. The source must be well-formed (an error is
// returned otherwise, since a broken source indicates harness misuse,
// not a model failure).
func VerifyText(srcText, tgtText string, opts Options) (Result, error) {
	src, err := ir.ParseFunc(srcText)
	if err != nil {
		return Result{}, fmt.Errorf("alive: source does not parse: %w", err)
	}
	if err := ir.VerifyFunc(src); err != nil {
		return Result{}, fmt.Errorf("alive: source does not verify: %w", err)
	}
	tgt, res := Candidate(ir.ParseFunc(tgtText))
	if tgt == nil {
		return res, nil
	}
	return VerifyFuncs(src, tgt, opts), nil
}

// The two SyntaxError diagnostics, by prefix: the candidate did not
// parse, or parsed into structurally invalid IR. The policy's emulated
// Alive2 message (BLEU-scored against the real one) uses the first.
const (
	DiagParsePrefix   = "ERROR: couldn't parse transformed IR: "
	DiagInvalidPrefix = "ERROR: invalid IR: "
)

// Candidate is the one SyntaxError gate, applied to the outcome of
// parsing a model-emitted candidate — Candidate(ir.ParseFunc(text)),
// or a function out of ir.Parse with a nil error. It returns the
// candidate when it parsed and verifies structurally; otherwise nil
// and the SyntaxError verdict to report.
func Candidate(f *ir.Function, parseErr error) (*ir.Function, Result) {
	if parseErr != nil {
		return nil, Result{Verdict: SyntaxError, Diag: DiagParsePrefix + parseErr.Error()}
	}
	if err := ir.VerifyFunc(f); err != nil {
		return nil, Result{Verdict: SyntaxError, Diag: DiagInvalidPrefix + err.Error()}
	}
	return f, Result{}
}

// VerifyFuncs validates that tgt refines src. Both functions must be
// structurally well-formed.
func VerifyFuncs(src, tgt *ir.Function, opts Options) Result {
	return VerifyFuncsCtx(context.Background(), src, tgt, opts)
}

// VerifyFuncsCtx is VerifyFuncs under a context. The context is
// polled during symbolic execution and between refinement queries, so
// a cancellation lands within one bounded solver call at worst.
func VerifyFuncsCtx(ctx context.Context, src, tgt *ir.Function, opts Options) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return CanceledResult(err)
	}
	return verifyWith(ctx, bv.NewBuilder(), src, tgt, opts, exec, newSession)
}

// verifyWith is VerifyFuncsCtx over a builder the caller can read
// afterwards, an executor and a query solver it chooses (exec and
// newSession, but for ref_test.go).
func verifyWith(ctx context.Context, b *bv.Builder, src, tgt *ir.Function, opts Options, run func(*bv.Builder, *ir.Function, []symVal, execConfig) (*summary, error), newSolver func(*ir.Function, Options) querySolver) Result {
	if opts.MaxPaths == 0 {
		opts = DefaultOptions()
	}
	// Signature must match.
	if len(src.Params) != len(tgt.Params) || !src.RetTy.Equal(tgt.RetTy) {
		return Result{Verdict: SemanticError, Diag: "ERROR: signature mismatch between source and target"}
	}
	for i := range src.Params {
		if !src.Params[i].Ty.Equal(tgt.Params[i].Ty) {
			return Result{Verdict: SemanticError,
				Diag: fmt.Sprintf("ERROR: parameter %d type mismatch: %s vs %s", i, src.Params[i].Ty, tgt.Params[i].Ty)}
		}
	}

	// Shared symbolic inputs. Parameters carry noundef in the clang
	// -O0 style our pipeline uses, so inputs are never poison; a
	// non-noundef parameter gets a free poison bit.
	params := make([]symVal, len(src.Params))
	paramNames := make([]string, len(src.Params))
	for i, p := range src.Params {
		w, err := widthOf(p.Ty)
		if err != nil {
			return Result{Verdict: Inconclusive, Diag: "ERROR: " + err.Error()}
		}
		name := fmt.Sprintf("in%d", i)
		paramNames[i] = p.NameStr
		poison := b.False()
		if !p.Noundef || !tgt.Params[i].Noundef {
			poison = b.Var(1, name+"$poison")
		}
		params[i] = symVal{val: b.Var(w, name), poison: poison}
	}

	// Shared uninterpreted call results: occurrence k of callee c
	// returns the same unknown on both sides (trace equality below
	// makes this sound).
	callVars := map[string]*bv.Term{}
	callVar := func(k int, callee string, width int) *bv.Term {
		key := fmt.Sprintf("call$%s$%d$%d", callee, k, width)
		if t, ok := callVars[key]; ok {
			return t
		}
		t := b.Var(width, key)
		callVars[key] = t
		return t
	}

	cfg := execConfig{ctx: ctx, maxPaths: opts.MaxPaths, maxSteps: opts.MaxSteps, callVar: callVar}
	sSum, err := run(b, src, params, cfg)
	if err != nil {
		return inconclusiveFrom(err)
	}
	tSum, err := run(b, tgt, params, cfg)
	if err != nil {
		return inconclusiveFrom(err)
	}

	return refine(ctx, b, sSum, tSum, paramNames, opts, newSolver)
}

// inconclusiveFrom is the verdict of an executor that stopped with err;
// an error neither canceled nor a limit is an unsupported construct.
func inconclusiveFrom(err error) Result {
	var lim *errPathLimit
	var canc *errCanceled
	switch {
	case errors.As(err, &canc):
		return CanceledResult(canc.cause)
	case errors.As(err, &lim):
		return Result{Verdict: Inconclusive, Diag: lim.diag}
	}
	return Result{Verdict: Inconclusive, Diag: "ERROR: " + err.Error()}
}

// refinementQuery is one class of potential violation, checked in
// order; the first satisfiable one yields the diagnostic.
type refinementQuery struct {
	cond *bv.Term
	diag string
}

func refine(ctx context.Context, b *bv.Builder, src, tgt *summary, paramNames []string, opts Options, newSolver func(*ir.Function, Options) querySolver) Result {
	srcOK := b.Not(src.ub)
	var queries []refinementQuery

	// 1. Target must not introduce UB.
	queries = append(queries, refinementQuery{
		cond: b.BoolAnd(srcOK, tgt.ub),
		diag: "Target has undefined behavior where source does not",
	})

	// 2. Observable call traces must match: per occurrence index, the
	// same callee must run under the same condition with equal,
	// non-poison arguments.
	maxOcc := src.maxOccur
	if tgt.maxOccur > maxOcc {
		maxOcc = tgt.maxOccur
	}
	for k := 0; k < maxOcc; k++ {
		callees := map[string]bool{}
		for _, ev := range occ(src, k) {
			callees[ev.callee] = true
		}
		for _, ev := range occ(tgt, k) {
			callees[ev.callee] = true
		}
		names := make([]string, 0, len(callees))
		for c := range callees {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, callee := range names {
			sCond, sArgs, sOK := gatherCalls(b, occ(src, k), callee)
			tCond, tArgs, tOK := gatherCalls(b, occ(tgt, k), callee)
			if !sOK || !tOK {
				// Inconsistent argument types across paths within one
				// function: reject whenever the call happens.
				queries = append(queries, refinementQuery{
					cond: b.BoolAnd(srcOK, b.BoolOr(sCond, tCond)),
					diag: fmt.Sprintf("Call to @%s (occurrence %d) has inconsistent argument types", callee, k+1),
				})
				continue
			}
			// Same happens-condition.
			queries = append(queries, refinementQuery{
				cond: b.BoolAnd(srcOK, b.Bin(bv.OpXor, sCond, tCond)),
				diag: fmt.Sprintf("Call to @%s (occurrence %d) happens in only one of source and target", callee, k+1),
			})
			// Equal, non-poison arguments when both happen.
			n := len(sArgs)
			if len(tArgs) < n {
				n = len(tArgs)
			}
			if len(sArgs) != len(tArgs) {
				queries = append(queries, refinementQuery{
					cond: b.BoolAnd(srcOK, b.BoolAnd(sCond, tCond)),
					diag: fmt.Sprintf("Call to @%s (occurrence %d) has different arity", callee, k+1),
				})
			}
			for j := 0; j < n; j++ {
				both := b.BoolAnd(srcOK, b.BoolAnd(sCond, tCond))
				if sArgs[j].val.Width != tArgs[j].val.Width {
					// The argument types differ — wrong whenever both
					// calls happen.
					queries = append(queries, refinementQuery{
						cond: both,
						diag: fmt.Sprintf("Argument %d of call to @%s (occurrence %d) has a different type", j+1, callee, k+1),
					})
					continue
				}
				bad := b.BoolOr(
					b.BoolOr(sArgs[j].poison, tArgs[j].poison),
					b.Not(b.Eq(sArgs[j].val, tArgs[j].val)))
				queries = append(queries, refinementQuery{
					cond: b.BoolAnd(both, bad),
					diag: fmt.Sprintf("Argument %d of call to @%s (occurrence %d) differs or may be poison", j+1, callee, k+1),
				})
			}
		}
	}

	if src.retVal != nil {
		okBoth := b.BoolAnd(srcOK, b.Not(tgt.ub))
		srcDefined := b.BoolAnd(okBoth, b.Not(src.retPoison))
		// 3. Target must not be more poisonous.
		queries = append(queries, refinementQuery{
			cond: b.BoolAnd(srcDefined, tgt.retPoison),
			diag: "Target is more poisonous than source",
		})
		// 4. Defined values must agree.
		queries = append(queries, refinementQuery{
			cond: b.BoolAnd(srcDefined, b.BoolAnd(b.Not(tgt.retPoison), b.Not(b.Eq(src.retVal, tgt.retVal)))),
			diag: "Value mismatch",
		})
	}

	live := queries[:0]
	for _, q := range queries {
		if !isFalse(q.cond) {
			live = append(live, q)
		}
	}
	queries = live
	if len(queries) == 0 {
		// Source and target interned to the same terms (bv's normal form
		// exists to make this the common Equivalent): no session, no
		// solver, nothing blasted.
		return Result{Verdict: Equivalent}
	}

	solver := newSolver(src.fn, opts)
	if sess, ok := solver.(*sessionSolver); ok {
		if res, done := refineBatched(ctx, b, sess, queries, src, tgt, paramNames); done {
			return res
		}
	}
	return refinePerQuery(ctx, b, solver, queries, src, tgt, paramNames)
}

// refinePerQuery discharges the queries one solver call each, in
// order: the first satisfiable query yields the diagnostic. This is
// the fallback when a batched session solve exhausts its budget (so
// Inconclusive attribution matches), and the fresh-solver reference's
// only path.
func refinePerQuery(ctx context.Context, b *bv.Builder, solver querySolver, queries []refinementQuery, src, tgt *summary, paramNames []string) Result {
	for _, q := range queries {
		// Each check call is bounded by SolverBudget; polling the
		// context between queries keeps the cancellation latency within
		// one solver call.
		if err := ctx.Err(); err != nil {
			res := CanceledResult(err)
			res.SolverConflicts = solver.spent()
			return res
		}
		res, err := solver.check(q.cond)
		if err != nil {
			return Result{Verdict: Inconclusive,
				Diag:            diagConflictBudget + " (" + q.diag + " check)",
				SolverConflicts: solver.spent()}
		}
		if res.Status == sat.Sat {
			return semanticError(b, q, res.Model, src, tgt, paramNames, solver.spent())
		}
	}
	return Result{Verdict: Equivalent, SolverConflicts: solver.spent()}
}

// refineBatched is the session fast path: after an in-order concrete
// pre-pass over every query, the remaining queries are discharged with
// ONE solver call on their disjunction. Unsat proves all of them at
// once — the common Equivalent case pays one search instead of one per
// query — and a Sat model is attributed to the first query it
// concretely violates. done is false when the batch cannot settle the
// matter (budget exhausted, or a model no query's Eval confirms):
// the caller falls back to the per-query path, whose budget and
// diagnostic attribution match the fresh solver exactly.
func refineBatched(ctx context.Context, b *bv.Builder, sess *sessionSolver, queries []refinementQuery, src, tgt *summary, paramNames []string) (Result, bool) {
	if err := ctx.Err(); err != nil {
		res := CanceledResult(err)
		res.SolverConflicts = sess.spent()
		return res, true
	}
	// In-order pre-pass: violations the candidate environments expose
	// are attributed to the earliest query, matching per-query order.
	for _, q := range queries {
		if res, ok := sess.sess.TryConcrete(q.cond); ok {
			return semanticError(b, q, res.Model, src, tgt, paramNames, sess.spent()), true
		}
	}
	any := queries[0].cond
	for _, q := range queries[1:] {
		any = b.BoolOr(any, q.cond)
	}
	res, err := sess.check(any)
	if err != nil {
		return Result{}, false // budget: per-query fallback attributes it
	}
	if res.Status != sat.Sat {
		return Result{Verdict: Equivalent, SolverConflicts: sess.spent()}, true
	}
	for _, q := range queries {
		if v, ok := bv.Eval(q.cond, res.Model); ok && v == 1 {
			return semanticError(b, q, res.Model, src, tgt, paramNames, sess.spent()), true
		}
	}
	// A disjunction model no disjunct's Eval confirms would mean Eval
	// and the blaster disagree; re-check query by query rather than
	// guess.
	return Result{}, false
}

func semanticError(b *bv.Builder, q refinementQuery, model map[string]uint64, src, tgt *summary, paramNames []string, conflicts int) Result {
	return Result{
		Verdict:         SemanticError,
		Diag:            renderDiag(b, q.diag, model, src, tgt, paramNames),
		Counterexample:  extractInputs(model, paramNames),
		SolverConflicts: conflicts,
	}
}

// querySolver abstracts how refine discharges its queries: an
// incremental session shared across the whole verify, or (ref_test.go)
// a fresh solver per query, the way builds before the session did.
type querySolver interface {
	check(t *bv.Term) (bv.Result, error)
	// spent reports the total SAT conflicts consumed so far.
	spent() int
}

type sessionSolver struct{ sess *bv.Session }

func (s *sessionSolver) check(t *bv.Term) (bv.Result, error) { return s.sess.Check(t) }
func (s *sessionSolver) spent() int                          { return s.sess.Conflicts() }

// newSession is the production query solver: one bv.Session under the
// conflict budget, its pre-pass seeded from fn's parameter widths.
func newSession(fn *ir.Function, opts Options) querySolver {
	sess := bv.NewSession(opts.SolverBudget)
	for _, env := range seedEnvs(fn) {
		sess.SeedEnv(env)
	}
	return &sessionSolver{sess: sess}
}

// seedEnvs returns the deterministic concrete-input environments that
// prime the session's pre-pass: per-parameter boundary patterns, a few
// pseudo-random vectors from a fixed seed, and two poison probes.
// Variables an environment omits (call results, globals, poison bits)
// evaluate as 0 under bv.Eval, which matches how extractInputs and
// renderDiag read models.
//
// The list is a pure function of the parameter widths, so it is built
// once per width signature and shared by every session on every
// goroutine: callers must treat the maps as read-only (bv.Session
// does — TryConcrete copies the environment it returns).
func seedEnvs(fn *ir.Function) []map[string]uint64 {
	var buf [16]byte
	sig := buf[:0]
	for _, p := range fn.Params {
		w, err := widthOf(p.Ty)
		if err != nil || w < 0 || w > 255 {
			return nil // refine will surface the width error via SAT anyway
		}
		sig = append(sig, byte(w))
	}
	seedEnvMemo.RLock()
	envs, ok := seedEnvMemo.m[string(sig)]
	seedEnvMemo.RUnlock()
	if ok {
		return envs
	}
	envs = buildSeedEnvs(sig)
	seedEnvMemo.Lock()
	// Signatures come from client IR; past the bound they are rebuilt
	// per verification, as every one used to be.
	if len(seedEnvMemo.m) < 1024 {
		seedEnvMemo.m[string(sig)] = envs
	}
	seedEnvMemo.Unlock()
	return envs
}

var seedEnvMemo = struct {
	sync.RWMutex
	m map[string][]map[string]uint64
}{m: map[string][]map[string]uint64{}}

// buildSeedEnvs builds the environments for parameters of the given
// widths, one byte each.
func buildSeedEnvs(sig []byte) []map[string]uint64 {
	widths, names := make([]int, len(sig)), make([]string, len(sig))
	for i, w := range sig {
		widths[i], names[i] = int(w), fmt.Sprintf("in%d", i)
	}
	maskOf := func(w int) uint64 {
		if w >= 64 {
			return ^uint64(0)
		}
		return 1<<uint(w) - 1
	}
	var envs []map[string]uint64
	addPattern := func(f func(w int) uint64) {
		env := make(map[string]uint64, len(widths))
		for i, w := range widths {
			env[names[i]] = f(w) & maskOf(w)
		}
		envs = append(envs, env)
	}
	// Boundary patterns, all parameters in lockstep: zero, one,
	// all-ones (-1), signed min, signed max, alternating bits.
	addPattern(func(int) uint64 { return 0 })
	addPattern(func(int) uint64 { return 1 })
	addPattern(func(w int) uint64 { return maskOf(w) })
	addPattern(func(w int) uint64 { return 1 << uint(w-1) })
	addPattern(func(w int) uint64 { return maskOf(w) >> 1 })
	addPattern(func(int) uint64 { return 0xaaaaaaaaaaaaaaaa })
	// Small-magnitude values: off-by-one rewrites and shift/divide
	// miscompilations usually already differ on tiny inputs.
	addPattern(func(int) uint64 { return 2 })
	addPattern(func(int) uint64 { return 3 })
	addPattern(func(w int) uint64 { return maskOf(w) - 1 }) // -2
	// Pseudo-random vectors. The seed is fixed so verification stays
	// deterministic (and memoizable in internal/vcache). Concrete
	// evaluation costs microseconds per environment while a
	// solver-found counterexample must complete a model over the whole
	// CNF, so a generous set pays for itself many times over.
	rng := rand.New(rand.NewSource(0x5eedc0de))
	for n := 0; n < 32; n++ {
		env := make(map[string]uint64, len(widths))
		for i, w := range widths {
			env[names[i]] = rng.Uint64() & maskOf(w)
		}
		envs = append(envs, env)
	}
	// Small random values (solver models and wide-range randoms rarely
	// land in the range where comparison/branch templates flip).
	for n := 0; n < 8; n++ {
		env := make(map[string]uint64, len(widths))
		for i, w := range widths {
			env[names[i]] = (rng.Uint64() & 0xf) & maskOf(w)
		}
		envs = append(envs, env)
	}
	// Poison probes: random values with the per-parameter poison bits
	// raised, for queries reachable only through a poisoned input.
	for n := 0; n < 2; n++ {
		env := make(map[string]uint64, 2*len(widths))
		for i, w := range widths {
			env[names[i]] = rng.Uint64() & maskOf(w)
			env[names[i]+"$poison"] = 1
		}
		envs = append(envs, env)
	}
	return envs
}

func occ(s *summary, k int) []callEvent {
	if k < len(s.calls) {
		return s.calls[k]
	}
	return nil
}

// gatherCalls merges the events for one occurrence index and callee
// into a single (condition, args) pair using ite chains. ok is false
// when events disagree on argument types.
func gatherCalls(b *bv.Builder, events []callEvent, callee string) (*bv.Term, []symVal, bool) {
	cond := b.False()
	var args []symVal
	for _, ev := range events {
		if ev.callee != callee {
			continue
		}
		cond = b.BoolOr(cond, ev.cond)
		if args == nil {
			args = make([]symVal, len(ev.args))
			for j := range ev.args {
				args[j] = ev.args[j]
			}
		} else {
			n := len(args)
			if len(ev.args) < n {
				n = len(ev.args)
			}
			for j := 0; j < n; j++ {
				if ev.args[j].val.Width != args[j].val.Width {
					return cond, nil, false
				}
				args[j] = symVal{
					val:    b.Ite(ev.cond, ev.args[j].val, args[j].val),
					poison: b.Ite(ev.cond, ev.args[j].poison, args[j].poison),
				}
			}
		}
	}
	return cond, args, true
}

// extractInputs pulls the parameter valuation out of a SAT model. The
// names are cloned: they are substrings of the text the function was
// parsed from, and a Result is cached long after that request is gone.
func extractInputs(model map[string]uint64, paramNames []string) map[string]uint64 {
	out := make(map[string]uint64, len(paramNames))
	for i, n := range paramNames {
		out[strings.Clone(n)] = model[fmt.Sprintf("in%d", i)]
	}
	return out
}

// renderDiag produces an Alive2-flavoured error report with the
// triggering example, e.g.:
//
//	ERROR: Value mismatch
//
//	Example:
//	i32 %0 = #x00000007 (7)
//	Source value: i32 14
//	Target value: i32 15
func renderDiag(b *bv.Builder, kind string, model map[string]uint64, src, tgt *summary, paramNames []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ERROR: %s\n\nExample:\n", kind)
	for i, p := range src.fn.Params {
		v := model[fmt.Sprintf("in%d", i)]
		w, _ := widthOf(p.Ty)
		fmt.Fprintf(&sb, "%s %%%s = #x%0*x (%d)\n", p.Ty, paramNames[i], (w+3)/4, v, signedOf(v, w))
	}
	env := model
	if src.retVal != nil {
		fmt.Fprintf(&sb, "Source value: %s %s\n", src.fn.RetTy, renderVal(src.retVal, src.retPoison, env))
		fmt.Fprintf(&sb, "Target value: %s %s\n", tgt.fn.RetTy, renderVal(tgt.retVal, tgt.retPoison, env))
	}
	return strings.TrimRight(sb.String(), "\n")
}

func renderVal(val, poison *bv.Term, env map[string]uint64) string {
	if p, ok := bv.Eval(poison, env); ok && p == 1 {
		return "poison"
	}
	v, ok := bv.Eval(val, env)
	if !ok {
		return "?"
	}
	return fmt.Sprintf("%d", signedOf(v, val.Width))
}

func signedOf(v uint64, w int) int64 {
	if w == 1 {
		return int64(v & 1) // i1 renders as 0/1, not -1
	}
	if w < 64 && v&(1<<uint(w-1)) != 0 {
		v |= ^uint64(0) << uint(w)
	}
	return int64(v)
}
