# Tier-1 verification, one command: `make ci` mirrors the GitHub
# Actions workflow (.github/workflows/ci.yml) step for step.

GO ?= go

# COVER_FLOOR is the total-coverage gate: measured ~72% when the gate
# was added (PR 4), raised to 73 with the fleet runtime (PR 5, measured
# above it), and to 83 in PR 64 (84.2% measured). Raise it as coverage
# grows; never lower it to get a change in.
COVER_FLOOR ?= 83

# LOC_CEILING is the line-count gate on `make loc`, added at 18,373 in
# PR 21; CHANGES.md records each later PR's count.
# ROADMAP aim 2 wants the number to shrink, so lower it when a PR
# removes code; raising it is a deliberate edit that says in CHANGES.md
# what the added lines buy.
LOC_CEILING ?= 14418

.PHONY: all build fmt vet test race determinism bench bench-json fuzz cover loc loc-code loc-gate profile profile-plan staticcheck ci

all: build

build:
	$(GO) build ./...

# fmt fails (like CI) when any file needs gofmt; run `gofmt -w .` to fix.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# benchmark/ is its own module outside ./... that imports
# disttrain/internal/...; vetting it compiles the command and its
# tests, so deleting an internal name it uses fails here.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

# benchmark/'s own tests ride along: its generated-scenario reference
# oracle and per-round lease-partition assertion are the strongest
# guard on a fleet-core edit.
test:
	$(GO) test ./...
	$(GO) test -C benchmark ./...

# race runs -short: the full scenario matrix (trainer scenario tests)
# runs without the race detector in `make test`, keeping the slow
# race gate fast; ci runs both.
race:
	$(GO) test -race -short ./...

# determinism reruns the determinism gates on one P: a multi-core box
# hides results that depend on goroutine scheduling (a checkpoint
# count once did). CI's `Tests (GOMAXPROCS=1)` step runs this target,
# so DETERMINISM_TESTS is the one list of those gates. It first fails
# when a name in the list is no test's (`go test -list`), so a renamed
# or deleted gate cannot silently run nothing.
DETERMINISM_TESTS = TestConcurrentRuntimeEquivalence|TestTraceByteIdenticalToSequential|TestFleetDeterminism|TestFleetOneJobEquivalence|TestPriorityDeterminism|TestFleetPreprocessDeterminism|TestControllerSteadyByteIdentical|TestCheckpointsSavedIsExact|TestFleetResolvesEachClassOnce|TestConcurrentFleetsMatchSolo
determinism:
	@listed=$$($(GO) test -list '$(DETERMINISM_TESTS)' ./internal/...) || { echo "$$listed"; exit 1; }; \
	for name in $$(echo '$(DETERMINISM_TESTS)' | tr '|' ' '); do \
		echo "$$listed" | grep -qx "$$name" || \
			{ echo "FAIL: DETERMINISM_TESTS names $$name, which matches no test"; exit 1; }; \
	done
	GOMAXPROCS=1 $(GO) test -short -run '$(DETERMINISM_TESTS)' ./internal/...

# bench is the smoke run: every benchmark once, no measurement loops.
# -benchmem makes every run report B/op and allocs/op, so the smoke
# also exercises the allocation accounting bench-json records.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# bench-json records the root benchmarks' trajectory — fleet,
# shared-preprocessing-service, plan-cache, cold-search and cold-admission ns/op,
# B/op and allocs/op, the median-ns/op sample of five per name — into
# $(BENCH_JSON), written atomically. It gates nothing: each allocation
# count is pinned by a tier-1 budget test in the package that owns the
# path (TestFleetAllocBudget, TestNewAllocBudget,
# TestServiceFetchAllocBudget, TestWarmPlanHitAllocBudget,
# TestMemPlanHitAllocBudget, TestPlanSearchAllocBudget), and every
# speed claim is made by the benchmark/ ledger's paired parent/change
# runs. The recorded ns/op are absolute times from one session on a
# box whose speed drifts, so values from two sessions are not
# comparable: speed evidence comes only from benchmark/'s paired runs.
# The smoke-only benchmarks (`make bench`) are not recorded.
BENCH_JSON ?= BENCH_fleet.json
bench-json:
	$(GO) test -bench='FleetThroughput|ServiceThroughput|PlanSearch|ColdAdmissionStorm' -count=5 -benchmem -run='^$$' . > bench.out
	$(GO) run ./cmd/disttrain-benchjson -o $(BENCH_JSON) < bench.out
	@rm -f bench.out

# profile runs the 16-job fleet sweep under the pprof flags and leaves
# cpu/heap/mutex profiles in $(PROF_DIR). Read them with e.g.
#   go tool pprof -top $(PROF_DIR)/fleet-cpu.pprof
#   go tool pprof -sample_index=alloc_objects -top $(PROF_DIR)/fleet-mem.pprof
# This is the workflow that drove the hot-loop optimization pass; see
# "Profiling & performance" in the README.
PROF_DIR ?= profiles
PROF_JOBS ?= 16
PROF_ITERS ?= 2
profile: build
	@mkdir -p $(PROF_DIR)
	$(GO) run ./cmd/disttrain-fleet -nodes $$(( 2 * $(PROF_JOBS) )) -jobs $(PROF_JOBS) \
		-job-iters $(PROF_ITERS) -job-nodes 2-2 -batch 32 -trace $(PROF_DIR)/fleet-trace.json \
		-cpuprofile $(PROF_DIR)/fleet-cpu.pprof \
		-memprofile $(PROF_DIR)/fleet-mem.pprof \
		-mutexprofile $(PROF_DIR)/fleet-mutex.pprof
	@echo "profiles written to $(PROF_DIR)/"

# profile-plan is the planner's counterpart: the §4.3 search alone, the
# 72B model across Table 3's range of cluster sizes. A sweep of the
# table's four sizes is four searches — a few milliseconds, a handful
# of CPU samples — and a repeated size is a cache hit, so the sweep
# covers every PROF_PLAN_STEP-th size from 14 to 162 nodes instead:
# ~75 distinct cold searches in the one sweep (each size calibrates its
# own profiler, so none warm-starts another). The table goes to
# $(PROF_DIR)/plan-sweep.txt.
#   go tool pprof -top -focus=orchestrator $(PROF_DIR)/plan-cpu.pprof
PROF_PLAN_STEP ?= 2
profile-plan: build
	@mkdir -p $(PROF_DIR)
	$(GO) run ./cmd/disttrain-plan -model 72b -batch 1920 \
		-sweep $$(seq -s, 14 $(PROF_PLAN_STEP) 162) \
		-cpuprofile $(PROF_DIR)/plan-cpu.pprof \
		-memprofile $(PROF_DIR)/plan-mem.pprof \
		-mutexprofile $(PROF_DIR)/plan-mutex.pprof > $(PROF_DIR)/plan-sweep.txt
	@echo "profiles written to $(PROF_DIR)/"

# staticcheck runs honnef.co/go/tools with the checks pinned in
# staticcheck.conf. The binary is not vendored: CI installs a pinned
# version; locally the target skips (with a note) when the tool is
# absent, so `make ci` never needs network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it; go install honnef.co/go/tools/cmd/staticcheck@2025.1 to run locally)"; \
	fi

# fuzz smoke: hammer the user-facing parsers with generated inputs for
# a few seconds each — the preprocessing wire protocol from both ends
# (the replies a client parses, the byte streams a producer's
# connection handler reads) and the scenario grammar — rewrites
# against the code they replaced, bit for bit: the pixel kernel against
# the staged decode/resize/pack helpers (corrupted streams included)
# and its word-at-a-time filter on arbitrary pixels, the trace log
# against the sharded recorder and the compiled sample cost model
# against the formulas it was compiled from — the search's prune bound
# and its per-shape block bound against brute force over every
# constructible allocation, the planner's monotonicity in cluster size
# (more nodes never plan slower beyond the 1% band), and
# the two scratch-owning kernels, one long-lived Simulator / Reorderer
# against a fresh one per call, the shared 1F1B execution order against
# the loop that found it as it ran, and the corpus's closed-form generator
# against math/rand (the seeded corpora always run in plain `make
# test`) — and the plan store's log scanner, the whole of what an
# unsynced log promises, the data plane's generational window
# against a map that keeps every put, and the fleet lease table's
# incrementally kept free list, counts and snapshot against a scan of
# its owner slots.
#
# FUZZ_TARGETS is the one list of those targets, package:name, and CI's
# fuzz step runs this target. It first fails when a `func Fuzz…` in any
# package is missing from the list, or the list names no fuzz test
# (`go test -list`), so a new or renamed target cannot silently go
# unfuzzed.
FUZZ_TARGETS = \
	./internal/preprocess:FuzzParseBatch \
	./internal/preprocess:FuzzServerRequest \
	./internal/preprocess:FuzzPixelKernel \
	./internal/preprocess:FuzzPatchFilter \
	./internal/scenario:FuzzScenarioParse \
	./internal/orchestrator:FuzzDiscreteBound \
	./internal/orchestrator:FuzzBlockBound \
	./internal/orchestrator:FuzzPlanMonotone \
	./internal/metrics:FuzzTraceEquivalence \
	./internal/profiler:FuzzSamplePricing \
	./internal/pipeline:FuzzSimulatorReuse \
	./internal/pipeline:FuzzExecOrder \
	./internal/reorder:FuzzReordererReuse \
	./internal/data:FuzzSeededRand \
	./internal/store:FuzzLogScan \
	./internal/window:FuzzWindow \
	./internal/fleet:FuzzLeaseTable
fuzz:
	@listed=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$listed"; exit 1; }; \
	found=$$(echo "$$listed" | awk '/^Fuzz/ { n[++k] = $$1; next } \
		/^ok/ { p = $$2; sub(/^disttrain/, ".", p); for (i = 1; i <= k; i++) print p ":" n[i]; k = 0 }'); \
	for t in $$found; do \
		case " $(strip $(FUZZ_TARGETS)) " in *" $$t "*) ;; \
		*) echo "FAIL: $$t is missing from FUZZ_TARGETS"; exit 1 ;; esac; \
	done; \
	for t in $(FUZZ_TARGETS); do \
		echo "$$found" | grep -qx "$$t" || \
			{ echo "FAIL: FUZZ_TARGETS names $$t, which is no fuzz test"; exit 1; }; \
	done
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run='^$$' -fuzz="^$${t#*:}\$$" -fuzztime=5s "$${t%%:*}" || exit 1; \
	done

# cover fails when total statement coverage regresses below
# COVER_FLOOR. Writes cover.out for per-package reporting.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: total coverage $$total% regressed below the $(COVER_FLOOR)% floor"; exit 1; }

# loc prints the number ROADMAP aim 2 tracks and every simplicity PR's
# CHANGES.md entry quotes: lines of non-test Go outside benchmark/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

# loc-code is loc without blank and comment-only lines: the code a
# simplicity PR removes, which deleting a comment does not shrink.
loc-code:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | \
		grep -Ev '^[[:space:]]*(//.*)?$$' | wc -l

# loc-gate fails when that number grows past LOC_CEILING.
loc-gate:
	@total=$$($(MAKE) -s loc); \
	echo "non-test Go outside benchmark/: $$total lines (ceiling $(LOC_CEILING))"; \
	[ "$$total" -le "$(LOC_CEILING)" ] || \
		{ echo "FAIL: $$total lines is over the $(LOC_CEILING)-line ceiling"; exit 1; }

ci: build fmt vet staticcheck test race determinism bench fuzz cover loc-gate
