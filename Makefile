# Verification tiers for veriopt.
#
# tier1 is the repo's baseline gate: everything builds, all tests
# pass. tier2 adds the lint tier (static analysis + formatting) and
# the race detector over the concurrent verification engine and
# worker pools (par.For, oracle stack, parallel Evaluate, parallel
# GRPO steps).

GO ?= go

.PHONY: all tier1 tier2 lint vcache-race serve-smoke resume-smoke store-smoke cluster-smoke passes-smoke experiments-check fuzz-smoke bench bench-workers bench-e2e bench-layers bench-pair bench-ir loc loc-check

all: tier1 tier2

tier1:
	$(GO) build ./...
	$(GO) test ./...

# -short under the race detector: the one thing it skips is bv's width-4
# enumeration of the Builder against its reference (half a billion
# evaluations; about 130 s under -race on a 2-vCPU host), which tier1
# has just run.
tier2: lint loc-check vcache-race serve-smoke resume-smoke store-smoke cluster-smoke passes-smoke experiments-check fuzz-smoke
	$(GO) test -race -short ./...

# Singleflight stress gate: the verdict cache's engine under the race
# detector ten times over, since its waiting, canceling and panicking
# paths interleave differently on each run and -race -short ./... runs
# each of them once (about 12 s on a 2-vCPU host).
vcache-race:
	$(GO) test -race -count=10 ./internal/vcache

# Serving-layer acceptance gate: >=100 concurrent /v1/verify requests
# through the bounded queue (200 or explicit 429, never a hang) beside
# /v1/optimize and /v1/evaluate requests, oracle hit rate + queue depth
# on /metrics, goroutine-clean drain.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./internal/server

# Durable-runs acceptance gate: train, kill mid-run (twice, at
# different depths), resume from the checkpoint, and require the final
# Model-Latency bytes to equal an uninterrupted run's; resume the
# checkpoints earlier trees wrote (testdata/parent-ckpt) onto the same
# bytes; and require the trace of an uninterrupted, a canceled and a
# resumed run to keep its stage, step and checkpoint events.
resume-smoke:
	$(GO) test -run 'TestResumeSmoke|TestParentCheckpointResumes|TestCurriculumTrace' -count=1 ./internal/pipeline

# Tiered-storage acceptance gate: fill a -store-dir past the hot
# tier's bound over HTTP, restart the server on the same directory
# behind a failing base verifier, and require every previously-proved
# pair answered from disk with zero solver runs while the in-memory
# tier stays under its entry bound.
store-smoke:
	$(GO) test -run TestStoreSmoke -count=1 ./internal/server

# Cluster acceptance gate: the built `veriopt serve -replicas`
# coordinator in front of harness-owned slow worker processes (the
# cluster test binary, re-executed). Requires >= 1.7x throughput at 2
# replicas and >= 3x at 4 (latency-bound workload: the workers sleep
# before verifying), and zero accepted-work loss across a mid-run
# SIGKILL of one replica, whose keys the coordinator re-routes to the
# next replica in their order.
cluster-smoke:
	CLUSTER_SMOKE=1 $(GO) test -run TestClusterSmoke -count=1 -v ./internal/cluster

# Pass-ordering workload acceptance gate: tiny corpus, short sequence-
# policy training run, beam baseline. Requires every emitted sequence
# output to be oracle-verified Equivalent (independently re-proven),
# zero fallbacks, and the beam baseline to strictly beat the fixed
# instcombine pipeline on geomean latency.
passes-smoke:
	$(GO) test -run TestPassesSmoke -count=1 ./internal/pipeline

# Reproduction-record gate: the run EXPERIMENTS.md quotes (Tables
# I-III, every figure, the ablations, the passes table; deterministic
# at any -workers, ~15 s) must reproduce the archived
# experiments_output.txt byte for byte. A PR that means to change a
# trajectory regenerates the archive and corrects EXPERIMENTS.md in
# the same commit.
experiments-check:
	$(GO) run ./cmd/veriopt experiments -run all -n 600 -seed 42 2>/dev/null | diff - experiments_output.txt

# Fuzz gate: every native fuzz target in the module (`go test -list`
# finds them, so a new one is in the gate the day it is written) for
# five seconds each, so that `go test -fuzz` reaches the solver stack
# (FuzzSessionVsFresh: session vs fresh solver, every Unsat replayed by
# internal/ruptest's RUP checker, every Sat model evaluated) and the
# parsers on every PR. Minimization is capped at ten runs per new input:
# its 60 s default would spend the whole window shrinking the first one
# found. A crasher lands in the package's testdata/fuzz/ and fails tier1
# from then on.
fuzz-smoke:
	@for p in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s -fuzzminimizetime 10x $$p || exit 1; \
		done; \
	done

# lint fails on any vet diagnostic or unformatted file; on Prometheus
# exposition text written or matched by hand (internal/metrics is the
# format's one renderer); and on a second softmax, hash
# embedding or log-softmax gradient (internal/policy/linear.go holds
# the one of each that both policies, both trainers and sft use); and
# on a map keyed by an interface (ir.Value, any, interface{}) under
# internal/ (every lookup hashes a type word and a pointer; key by
# *ir.Instr, or by the name field as the canonical printer does, and
# hold parameters by position, as interp, ir.CloneFunc and alive's
# executor do). Last, on container/list and on a map keyed by
# vcache.Key in the storage spine (vcache, oracle, cluster, vstore): such
# a map keeps two whole function texts alive per entry, which is what
# made a resident verdict weigh 1.2 KB; the spine's one identity is
# Key.Fingerprint().
# And on a rewrite rule whose step is written out by hand: a rule states
# what it matches once, to matchRule, peephole or stepRule (which takes
# one of instcombine's steps, its own finder with act false), so a step:
# key or a .step assignment under internal/rewrite is written only
# inside the bodies of matchRule and stepRule, and Applicable, Apply and
# Step read it. Likewise a seqopt Pass is one step run to its fixpoint:
# its type has no function field but step, no func( appears anywhere in
# a Pass{...} literal, however its lines are laid out, and no .step is
# assigned (a second finder or fix written as a closure).
# And on ir.CloneFunc( in non-test internal/rewrite code outside
# mem2reg.go: Applicable reads the function it is asked about and copies
# nothing; mem2reg's promote-then-verify copy is the one copy a rule
# needs.
# And on a verdict's diag searched for text outside internal/alive: why
# a verdict is Inconclusive is alive.Result.Reason, the one reader of
# the diag prefixes alive writes.
# And on %+v in non-test code under internal/ and cmd/: a struct dump
# changes whenever a field is added, renamed or removed, so it is not a
# persisted format (the checkpoint signature writes named fields).
# And on a NewStack( call in non-test code under internal/: there is
# no process-wide verifier, so a stack is built at the program's edge
# (cmd/, bench/, tests) and handed down as an oracle.Oracle argument.
# And on interp.Run( in any file under internal/, tests included,
# outside internal/interp and internal/refinetest: whether some input
# distinguishes two functions is decided by refinetest's one comparator
# (Run and Violation, Witness, Exhaustive, Falsify, Target), not by a
# copy.
# And on bleu. or ir.FingerprintText( in non-test internal/grpo code
# outside reward.go: a reward term is computed in one place, the scorer,
# which computes only the terms the step's reward mode reads (the
# latency stage scores no BLEU and no exact match against the label it
# drops).
# And on math.Log(, math.Exp(, oracle.Accept( or costmodel.Measure( in
# non-test internal/pipeline and internal/experiments code outside
# internal/pipeline/eval.go: both evaluation workloads (the text policy
# and the pass-ordering table) judge an output, measure what is kept and
# average the ratios in one place, judge, tally and geomean.
# Last, on an exported name under internal/ (package-level, method, or
# field of an exported struct) that no other package's non-test code
# references, unless an interface names it, it carries a json tag, an
# exported signature names it, or scripts/surface.allow lists it with a
# reason (scripts/surface: go/types over the module, a few seconds).
# And, in the same script, on a package-level variable of function type
# in non-test code under internal/ (a sync.OnceFunc/OnceValue/OnceValues
# memo aside): a process-wide hook a test reassigns cannot serve two
# tests at once, so a seam such as a solver's proof sink is handed in as
# an argument (bv.NewBlaster, bv.NewSessionProof) instead.
lint:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$fmtout"; \
		exit 1; \
	fi
	@hits=$$(grep -rnF -e '# HELP' -e '# TYPE' -e '{counter=' --include='*.go' --exclude='*_test.go' --exclude-dir=metrics internal cmd); \
	if [ -n "$$hits" ]; then \
		echo "exposition text outside internal/metrics (build a metrics.Family):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnF -e 'math.Exp(' -e 'hash/fnv' -e '- probs[' --include='*.go' --exclude='*_test.go' internal/seqopt internal/grpo internal/sft; \
		grep -rnF -e 'math.Exp(' --include='*.go' --exclude='*_test.go' --exclude=linear.go internal/policy); \
	if [ -n "$$hits" ]; then \
		echo "softmax, hash features or the log-softmax gradient outside internal/policy/linear.go (use policy.Linear):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnE 'map\[((ir\.)?Value|any|interface\{\})\]' --include='*.go' --exclude='*_test.go' internal); \
	if [ -n "$$hits" ]; then \
		echo "map keyed by an interface (key by *ir.Instr or a name field, parameters by position):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnE 'map\[(vcache\.)?Key\]|"container/list"' --include='*.go' --exclude='*_test.go' internal/vcache internal/oracle internal/cluster internal/vstore); \
	if [ -n "$$hits" ]; then \
		echo "map keyed by the full vcache.Key, or container/list, in the storage spine (key by Key.Fingerprint(): 32 bytes, not two function texts; link entries through their own fields):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(awk 'FNR==1{fn=""} /^func /{fn=$$2} /^}/{fn=""} /^[ \t]*\/\//{next} (/(^|[^A-Za-z0-9_.])step:/ || /\.step[ \t]*=[^=]/) && fn !~ /^(matchRule|stepRule)[[(]/ {print FILENAME":"FNR": "$$0}' $$(find internal/rewrite -name '*.go' ! -name '*_test.go'); \
		awk 'FNR==1{inpass=0; lit=0; d=0} /^[ \t]*\/\//{next} /^type Pass struct/{inpass=1; next} inpass && /^}/{inpass=0} inpass && /^\t[A-Za-z_][A-Za-z0-9_, ]*[ \t]func\(/ && $$1 != "step" {print FILENAME":"FNR": "$$0} /Pass\{/ && !lit {lit=1; d=0} (lit && /func\(/) || /\.step[ \t]*=[^=]/ {print FILENAME":"FNR": "$$0} lit {d+=gsub(/\{/,"{")-gsub(/\}/,"}"); if (d<=0) lit=0}' $$(find internal/seqopt -name '*.go' ! -name '*_test.go')); \
	if [ -n "$$hits" ]; then \
		echo "a rule's step written out by hand, or a pass with a second closure (declare a rule once with matchRule, peephole or stepRule; a seqopt Pass holds one step):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnF 'ir.CloneFunc(' --include='*.go' --exclude='*_test.go' --exclude=mem2reg.go internal/rewrite); \
	if [ -n "$$hits" ]; then \
		echo "ir.CloneFunc( in internal/rewrite outside mem2reg.go (a finder reads the function it is asked about: Applicable copies nothing):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnE 'strings\.(Contains|HasPrefix|HasSuffix|Index)\([^,)]*\.Diag\b' --include='*.go' --exclude='*_test.go' --exclude-dir=alive .); \
	if [ -n "$$hits" ]; then \
		echo "a verdict's diag searched outside internal/alive (ask Result.Reason why it is Inconclusive):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnF -e '%+v' --include='*.go' --exclude='*_test.go' internal cmd); \
	if [ -n "$$hits" ]; then \
		echo "%+v outside tests (a struct dump is not a persisted format: write the named fields the caller means):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnE '(oracle\.)?NewStack\(' --include='*.go' --exclude='*_test.go' internal | grep -v 'func NewStack'); \
	if [ -n "$$hits" ]; then \
		echo "an oracle stack built under internal/ (stacks are built in cmd/, bench/ and tests, and handed down: take an oracle.Oracle argument):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnF 'interp.Run(' --include='*.go' --exclude-dir=interp --exclude-dir=refinetest internal); \
	if [ -n "$$hits" ]; then \
		echo "interp.Run( outside internal/interp and internal/refinetest (run a pair through refinetest: Run and Violation, Witness, Exhaustive, Falsify):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnE 'bleu\.|ir\.FingerprintText\(' --include='*.go' --exclude='*_test.go' --exclude=reward.go internal/grpo); \
	if [ -n "$$hits" ]; then \
		echo "a reward term computed outside internal/grpo/reward.go (the scorer computes each term its mode reads, once):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@hits=$$(grep -rnF -e 'math.Log(' -e 'math.Exp(' -e 'oracle.Accept(' -e 'costmodel.Measure(' --include='*.go' --exclude='*_test.go' internal/pipeline internal/experiments | grep -v '^internal/pipeline/eval.go:'); \
	if [ -n "$$hits" ]; then \
		echo "an output judged, measured or averaged outside internal/pipeline/eval.go (go through judge, tally and the Report aggregates):"; \
		echo "$$hits"; \
		exit 1; \
	fi
	@$(GO) run ./scripts/surface

bench:
	$(GO) test -bench=. -benchmem .

# Single- vs multi-worker evaluation and GRPO-step deltas, and the
# sequential Model-Latency step (recorded in EXPERIMENTS.md).
bench-workers:
	$(GO) test -run xxx -bench 'Workers[0-9]' -benchtime 5x .

# The repository's benchmark (bench/README.md, BENCHMARK.json): all
# four workloads at the default seed and length. bench-e2e prints the
# end-to-end metrics the acceptance driver gates (setup_s,
# allocs_per_op, peak_rss_mb); bench-layers is the traced run with the
# per-layer numbers. BENCH_ARGS overrides the seed and length.
BENCH_WORKLOADS = serve-cold serve-warm cluster-cold search-cold
BENCH_ARGS     ?= --seed 12 --seconds 15
bench-e2e:
	@for w in $(BENCH_WORKLOADS); do bash bench/run.sh --workload $$w $(BENCH_ARGS) --trace 0 || exit 1; done

bench-layers:
	@for w in $(BENCH_WORKLOADS); do bash bench/run.sh --workload $$w $(BENCH_ARGS) --trace 1 || exit 1; done

# This checkout against the commit REF on one workload, N alternating
# pairs of end-to-end runs, each tree built by its own bench/run.sh:
# per metric both medians, their ratio and wins/N
# (scripts/bench-pair.sh). The one timing comparison quoted here.
WORKLOAD ?= search-cold
N        ?= 10
bench-pair:
	@[ -n "$(REF)" ] || { echo "usage: make bench-pair REF=<commit> [WORKLOAD=search-cold] [N=10]"; exit 2; }
	@sh scripts/bench-pair.sh $(REF) $(WORKLOAD) $(N) $(BENCH_ARGS)

# IR front-half micro-benchmarks (ir_bench_test.go): parse, structural
# verification, cache key, its digest, one clone and one combine fixpoint
# pass on a fixed mid-size function, one clone and one DCE of a generated
# 2 000-instruction function (where a lookup by position would show a
# size cliff), one interpreter run one-shot over the corpus, to the step
# limit on a corpus loop mutant and over the 2 000-instruction function,
# the reference instcombine pass over 40 corpus functions
# (bench_test.go), then what a search does with it: one verification,
# one of the 2 000-instruction function to the step limit (VerifyLarge),
# one seed-12 miscompile the session's pre-pass refutes (VerifyPrepass)
# and one whole Beam on a cold stack (the same go test line with
# -memprofile is the allocation profile of that path), the verifier's
# tail shapes one by one (VerifyTail), and then the table of where the
# solver's time goes over the benchmark's two corpora, per template and
# width, with the normal-form rules that fired (-seed N for another seed).
# Their allocation ceilings run in tier1 (TestIRFrontHalfAllocCeilings).
# The second line is one warm /v1/verify through the server's handler, in
# process (TestVerifyWarmAllocCeiling holds its allocations); add -cpu 1
# -count 10 to it to compare two trees.
bench-ir:
	$(GO) test -run '^$$' -bench '^Benchmark(ParseFunc|ParseLarge|VerifyFunc|KeyOfFunc|KeyFingerprint|CloneFunc|CombinePass|CloneFuncLarge|DeadCodeElimLarge|Mem2RegLarge|InstCombinePass|VerifyMid|VerifyLarge|VerifyPrepass|BeamMid|VerifyTail|InterpRun|InterpRunLoop|InterpRunLarge|GenerateSkipVerify)$$' -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkVerifyWarmHandler$$' -benchmem ./internal/server
	$(GO) test -run '^TestNormalFormTable$$' -count=1 -v ./internal/alive

# "Least code" as a number (ROADMAP, Design diet): per-package non-test
# lines, test lines and exported names, the options total (field lines
# of exported *Config/*Options structs under internal/), and the flag
# count of each veriopt subcommand, as DESIGN.md "Size" quotes them.
loc:
	@sh scripts/loc.sh

# The same count as a gate: fails when the non-test line total, the
# exported-name total or the options total exceeds scripts/loc.ceiling.
# A PR that needs more raises the ceiling in its own diff, where a
# reviewer sees it.
loc-check:
	@sh scripts/loc.sh check
