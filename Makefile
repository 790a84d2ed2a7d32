# Development entry points for the Re-Chord reproduction. CI runs the
# same commands (see .github/workflows/ci.yml), so a green `make lint
# test` locally means a green gate.

GO ?= go

# Pinned staticcheck version: CI installs exactly this; local installs
# should match so findings agree (go install
# honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)).
STATICCHECK_VERSION := 2025.1.1

# The gated benchmark groups. Each group — the command list that
# records it and the benchdiff flags that gate it against the committed
# BENCH_<group>.json — is defined exactly once, here; the recording
# targets, bench-diff and CI's bench-diff job all go through
# bench-record / bench-gate below, so the benchtimes cannot drift apart
# (allocs/op has a small GC-warmup component that amortizes differently
# under another benchtime, and the gate holds allocs to 0% tolerance).
BENCH_GROUPS := rounds async wire mem work lookups

# Every recording pins -cpu, so the benchmark names (go test appends -N
# for N != 1) and the default worker-pool size are the same on any
# machine and a gated name cannot go missing because the box has other
# cores than the recorder's. The round, async, work and lookups groups
# run on 2 processors (the Workers 4 barrier row needs real parallelism,
# the workload rows a core for the clients beside the stepping engine);
# wire and mem on 1, as their committed baselines were recorded.
BENCH_CPU := 2

# rounds: the round-engine benchmarks (steady-state Step, per-round
# cost at the paper's scale), the
# inverted-wake-index benchmark from internal/rechord (only the
# indexed series — the scan series is the O(n) equivalence baseline and
# takes minutes at the larger size; the two sizes must stay flat
# relative to each other, the frontier-proportional claim in numbers),
# the barrier split (prepare vs commit per batch under the n=4096
# hot-frontier transient at Workers 4; warn-only, its allocation counts
# vary with the worker pool — the Workers 1 row is gated in the work
# group; the n=16384 series is for by-hand runs) and the telemetry hot
# path.
BENCH_RECORD_rounds = { \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkStepSteadyState' -benchmem -benchtime=1000x . ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkRound$$' -benchmem -benchtime=1x . ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkWakeDependents/indexed' -benchmem -benchtime=1000x ./internal/rechord/ ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkBarrierCommit/workers=4/n=4096' -benchmem -benchtime=1x ./internal/rechord/ ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkObsHotPath' -benchmem -benchtime=1000x ./internal/obs/ ; }
BENCH_GATE_rounds = -fail-allocs 'BenchmarkStepSteadyState|BenchmarkWakeDependents|BenchmarkObsHotPath'

# async: the asynchronous scheduler's steady-state step (must stay flat
# in n; it needs iterations for a stable ns/op) and the churn-recovery
# and convergence sweeps (their cost is in setup, so a fixed small
# count).
BENCH_RECORD_async = { \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkAsyncStep' -benchmem -benchtime=100000x . ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkAsyncConvergence|BenchmarkAsyncChurnRecovery' -benchmem -benchtime=3x . ; }
BENCH_GATE_async = -fail-allocs 'BenchmarkAsyncStep'

# wire: the warm symbol-table message encode/decode hot path, pinned at
# its 0 allocs/op (a zero baseline admits no increase under any
# tolerance), and a whole 4-rank cluster over the in-process transport
# on the bench's wire script shape, its allocs/op gated within 10 % (it
# reports rounds/op beside the run's cost).
BENCH_RECORD_wire = { \
	$(GO) test -cpu 1 -run '^$$' -bench 'BenchmarkEncodeMessage|BenchmarkDecodeMessage' -benchmem -benchtime=10000x ./internal/wire/ ; \
	$(GO) test -cpu 1 -run '^$$' -bench 'BenchmarkChanCluster' -benchmem -benchtime=3x ./internal/wire/ ; }
BENCH_GATE_wire = -allocs-tol 0.10 -fail-allocs 'BenchmarkEncodeMessage|BenchmarkDecodeMessage|BenchmarkChanCluster'

# mem: resident bytes per peer of a settled network, standing flows
# included. The settle run is the cost, so one iteration per size.
# MEM_RUNGS selects the sizes: the gate measures these three; bench-mem
# clears it to record every rung (the widened timeout unlocks n=65536,
# which self-skips at the default deadline).
MEM_RUNGS ?= /n=(1024|4096|16384)$$
BENCH_RECORD_mem = $(GO) test -cpu 1 -run '^$$' -bench 'BenchmarkMemoryPerPeer$(MEM_RUNGS)' -benchtime=1x -timeout=60m .
BENCH_GATE_mem = -metric bytes/peer -metric-tol 0.10 -fail-metric 'BenchmarkMemoryPerPeer$(MEM_RUNGS)'

# work: the paths that do the work, gated on allocs/op within 10% —
# the non-quiescent counterpart of the 0-alloc pins. A fat frontier
# (n=320 from a random graph to the fixed point), a thin one (join,
# leave, crash on a stable n=512), one crash absorbed at n=1024, and the
# n=4096 hot-frontier transient, all but the crash at Workers 1, where
# the counts repeat exactly. The converge and repair rows also gate the
# work itself within 2%: activations/op (peer rule executions) and the
# commit's bucket-ops/op and dep-deltas/op. A run that allocates nothing
# is invisible to the allocation gate. The oracle (ComputeIdeal plus
# Matches on a settled n=512) rides along: every convergence check pays it.
BENCH_RECORD_work = { \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkConverge$$|BenchmarkRepairCycle|BenchmarkChurnRecoveryLarge' -benchmem -benchtime=1x . ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkBarrierCommit/workers=1/n=4096' -benchmem -benchtime=1x ./internal/rechord/ ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkOracle/n=512' -benchmem -benchtime=1x ./internal/rechord/ ; }
BENCH_GATE_work = -allocs-tol 0.10 -fail-allocs 'BenchmarkConverge|BenchmarkRepairCycle|BenchmarkChurnRecoveryLarge|BenchmarkBarrierCommit|BenchmarkOracle' \
	-metric activations/op -metric bucket-ops/op -metric dep-deltas/op -metric-tol 0.02 \
	-fail-metric 'BenchmarkConverge|BenchmarkRepairCycle'

# lookups: the serving layer — table routing over the published view
# against the baseline that re-derives every hop's table (the cached
# side is pinned at 0 allocs/op and must stay >= 5x the uncached
# throughput), and the workload engine end to end on a stable network
# and with membership events repaired under the traffic (the churn row:
# what clients get done while the engine steps). The stable rows'
# allocs/op are gated within 10 %: an op path that starts allocating
# again (a formatted miss, a key rendered per op) shows there; the
# churn row's count moves with how many ops meet a repair, so it warns.
BENCH_RECORD_lookups = { \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkTableLookup' -benchmem -benchtime=100000x . ; \
	$(GO) test -cpu $(BENCH_CPU) -run '^$$' -bench 'BenchmarkWorkload' -benchmem -benchtime=50x . ; }
BENCH_GATE_lookups = -allocs-tol 0.10 -fail-allocs 'BenchmarkTableLookup/cached|BenchmarkWorkload/(uniform|zipf)/'

# Where bench-gate writes its scratch recordings.
BENCH_TMP ?= /tmp

.PHONY: all test test-short lint vet fmt staticcheck loc bench bench-record bench-gate bench-json bench-lookups bench-async bench-mem bench-wire bench-work bench-diff fuzz-smoke cover examples clean

all: lint test

test:
	$(GO) build ./...
	$(GO) test ./...

test-short:
	$(GO) build ./...
	$(GO) test -race -short ./...

lint: fmt vet staticcheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped (loudly)
# otherwise, so `make lint` works on offline machines while CI — which
# installs the pinned version — always enforces it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# loc prints the code-size reading ROADMAP aim 2 tracks next to
# bytes/peer: non-test Go lines outside bench/, for the whole repo and
# for the engine package. It should go down while the benches hold. The
# engine package's test lines are printed beside it, so code that was
# deleted and code that moved into _test.go read differently.
loc:
	@count() { find "$$1" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -exec cat {} + | wc -l; }; \
	echo "non-test Go lines: repo $$(count .), internal/rechord $$(count internal/rechord)"; \
	echo "test Go lines: internal/rechord $$(cat internal/rechord/*_test.go | wc -l)"

# cover writes the aggregate coverage profile (uploaded as a CI
# artifact) and prints the total.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# examples builds and runs every examples/ program — the CI smoke gate
# proving the public facade drives each end to end — plus the async
# convergence figure in its quick sweep.
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d || exit 1; \
	done
	@echo "== async figure (quick)"
	$(GO) run ./cmd/rechord-figures -exp async -quick -reps 1 -plot=false

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-record records one gated group as machine-diffable JSON (name,
# ns/op, allocs/op, custom metrics): make bench-record GROUP=async
# OUT=/tmp/async.json.
bench-record:
	$(if $(and $(BENCH_RECORD_$(GROUP)),$(OUT)),,$(error usage: make bench-record GROUP=<one of $(BENCH_GROUPS)> OUT=<file>))
	$(BENCH_RECORD_$(GROUP)) | $(GO) run ./cmd/benchdiff record > $(OUT)
	@echo wrote $(OUT)

# bench-gate re-records one group next to, not over, its committed
# baseline and diffs the two under the group's gate: a listed
# allocs/op or bytes/peer regression fails, everything else warns
# (wall-clock drifts on shared machines, allocation counts do not).
# CI passes BENCHDIFF_FLAGS=-github for annotations.
bench-gate: OUT = $(BENCH_TMP)/bench_new_$(GROUP).json
bench-gate: bench-record
	$(GO) run ./cmd/benchdiff diff $(BENCHDIFF_FLAGS) -base BENCH_$(GROUP).json -new $(OUT) $(BENCH_GATE_$(GROUP))

# bench-diff runs every group's gate: the same commands as CI's
# bench-diff job.
bench-diff:
	@for g in $(BENCH_GROUPS); do $(MAKE) --no-print-directory bench-gate GROUP=$$g || exit 1; done

# The committed baselines are re-recorded per group (bench-json is
# the rounds group's historical target name).
bench-json:
	$(MAKE) --no-print-directory bench-record GROUP=rounds OUT=BENCH_rounds.json
bench-async:
	$(MAKE) --no-print-directory bench-record GROUP=async OUT=BENCH_async.json
bench-wire:
	$(MAKE) --no-print-directory bench-record GROUP=wire OUT=BENCH_wire.json
bench-mem:
	$(MAKE) --no-print-directory bench-record GROUP=mem OUT=BENCH_mem.json MEM_RUNGS=
bench-work:
	$(MAKE) --no-print-directory bench-record GROUP=work OUT=BENCH_work.json
bench-lookups:
	$(MAKE) --no-print-directory bench-record GROUP=lookups OUT=BENCH_lookups.json

# fuzz-smoke runs each native fuzz target briefly — the two codec ones
# and the engine against its reference — on the budget CI spends per
# target. One engine execution is a whole run of up to 96 rounds, and
# nearly every input reaches new coverage, so minimizing each of them
# (60 s by default) would eat the budget: it is switched off there.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzFrameRoundTrip' -fuzztime 30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeHostile' -fuzztime 30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineVsReference' -fuzztime 30s -fuzzminimizetime 0 ./internal/rechord/

clean:
	$(GO) clean -testcache
