# Tier-1 verification, one command: `make ci` mirrors the GitHub
# Actions workflow (.github/workflows/ci.yml) step for step.

GO ?= go

# COVER_FLOOR is the total-coverage gate: measured ~72% when the gate
# was added (PR 4), raised to 73 with the fleet runtime (PR 5, measured
# above it). Raise it as coverage grows; never lower it to get a
# change in.
COVER_FLOOR ?= 73

# LOC_CEILING is the line-count gate: `make loc` measured 18,373 when
# the gate was added (PR 21), 18,430 after PR 22, whose +57 are the
# scratch-owning Simulator / Reorderer and the trainer's one-walk
# front-end (fleet-steady op_ms_p50 52 -> 21 ms), 18,297 after PR 23's
# data-plane ownership pass, and 18,325 after PR 24, whose +28 are the
# scratch-backed pixel kernel, the two-generation corpus memo and the
# PoolStats latency ring (preprocess-fanin op_ms_p50 12.1 -> 3.2 ms,
# peak_rss_mb 35-43 -> 27-29), net of the build semaphore and the
# Series methods they made dead, 17,209 once what no program reaches
# was deleted (the broker actor, the parallel.Unit layer, the VPP
# simulator and GPipe arm, the profiler's interpolation tables and four
# never-varied profiler options; TestReachability keeps it that way),
# and 17,246 once fetches were routed by (iteration, DP width): the +37
# are the route each (tenant, rank) watermark carries for readahead to
# follow and the forgetting of watermarks retired tenants leave behind
# (preprocess-fanin work_per_cpu_s 1,168 -> 2,243, each iteration built
# once in the fleet instead of once per producer), 17,235 once the
# search's first phase probed instead of solving and one bound over the
# backbone's constructible sizes replaced four continuous ones, and
# 17,105 once every option no program set became a constant and every
# name, parameter and field the reachability guard found went, and
# 17,225 once corpus samples were seeded in closed form: the +120 are
# data.NewRand, a math/rand source exact to the draw that skips the
# legacy source's 1,841-step seeding loop (37 of them the derivation
# and docs in comments), which took fleet-churn work_per_cpu_s from
# 5,536 to 7,897 and a cold Corpus.Sample from ~15 to ~4 µs, and
# 16,928 once the root disttrain.go facade (66 re-exported names over
# internal/) was deleted and every program imported the owning package,
# and still 16,928 once plan-store puts stopped fsyncing: deleting the
# store's corruption hook paid for splitting store.ReplaceFile (the
# unsynced temp file + rename) out of the durable
# metrics.WriteFileAtomic, and 16,376 once admission planned
# synchronously at reservation and the planning state, the planner
# pool, the async ticket door and plan-ahead speculation were deleted,
# and 16,468 once a trainer iteration stopped paying for work it does
# not need: the +92 are Algorithms 1 and 2 sorting pointer-free
# (sizeRank, index) keys and the Reorderer ordering input positions,
# the untraced Simulator.SimulateUntraced path and its cached stage
# program, and the corpus's pooled subsequence scratch and AppendBatch
# (fleet-steady work_per_cpu_s 30.4k -> 37.9k, op_ms_p50 17.9 -> 14.5 ms),
# and 16,213 once the root rate gate went: the allocation counts it
# tripped on became tier-1 budget tests, and disttrain-benchjson lost
# its -diff comparison, its rate bands and its GOMAXPROCS recovery, and
# disttrain-fleet -plan-cache-dir built its own durable cache in place
# of fleet.Config.PlanCacheDir, and 16,421 once fleet tenants sharing a
# corpus and batch geometry shared the prepared batch: the +208 are
# trainer/batches.go (+162: BatchCache, its class, key and in-flight
# entry, the live-runtime count, and the runtime's join, lookup and
# fresh-slice build; 38 of them comment lines), trainer.go +20
# (Config.Batches and its doc, the runtime's registration and Close),
# concurrent.go +5 (prepare's shared branch), source.go +1 (trials never
# share), fleet.go +3 (the run's cache, a leaked runtime closed, net of
# roundInfo's one pass), table.go +1 (Leases replaces LeasedBy) and
# preprocess/server.go +16 (floorLocked factored out of evictLocked so
# a late readahead below the floor builds nothing) — fleet-steady
# work_per_cpu_s 42.6k -> 63.4k, op_ms_p50 13.2 -> 9.0 ms, and 16,328
# once the data plane's four caches shared one generational window:
# the new internal/window (+102) against the producer's watermark
# floor, in-flight map and tenant widths and the tenant's watermarks
# (server.go -108, service.go -46, batches.go -30, data.go -11), and
# 16,390 once tenants reading one shared batch under one plan shared its
# rank outcomes: the +62 are the run key, the outcome window and
# sharedRun (batches.go +39), the shared branch and the runRanks helper
# (concurrent.go +13), the serial phases priced once per plan
# (trainer.go +7) and the fleet's indexed loops (scheduler.go +3) —
# fleet-steady work_per_cpu_s 47.1k -> 131.3k, op_ms_p50 13.1 -> 5.7 ms,
# and 16,246 once the plan cache held its lock for a whole Plan call and
# the search planned one spec at a time: the cache's singleflight
# (claim/resolve/settle, the cancelled-search retry loop, the join hook)
# and the engine's multi-spec batching (PlanMany, PlanRequest,
# PlanResult), which synchronous admission had left without callers,
# and 16,245 once a traced iteration recorded its pipeline ops as one
# span block over its rank outcomes: the block and its write-time
# expansion (trace.go +19 net of Trace.Reserve) are paid for by
# reserveTrace (job.go -17) and the trainer's own share (-3), and
# 16,000 once a checkpoint became a record on the trainer's runtime:
# internal/dfs (the simulated file system, its writer goroutine and the
# checkpoint codec, -240) went, its two pricing functions moved into
# the trainer, and the save errors nothing could raise left the plan
# switch path, and 16,005 once a tenant stepped a shared batch at a
# cache hit's cost: the +5 are window.Once.Has and the one key helper
# through which Job.launch asks it whether a batch still needs
# building, net of batchFLOPs (folded into fold) and Runtime.shared
# (folded into prepare) (fleet-steady work_per_cpu_s 134k -> 175k),
# and 16,083 once a plan-cache hit stopped hashing the spec: the +78
# are the in-memory content key (plancache.go +45: planKey, the interned
# (calibration, placement) class, validation before the lookup and the
# fingerprint only for the durable store), model.MLLM.Equal (+17) in
# place of reflect.DeepEqual, the profiler's Model/Frozen/Params
# accessors (+14) and fingerprint.Hash.Sum staging its digest in place
# (+5, paying for the class map's allocation on a durable warm hit),
# net of the Options() copies the trainer and validation dropped (-3)
# (fleet-steady work_per_cpu_s 192k -> 240k), and 15,989 once a training
# run kept one level of concurrency (the async prepare): an iteration
# simulates its ranks inline (Runtime.workers, the rank fan-out and
# disttrain-sim -workers went), the controller runs its re-plan search
# at the trigger (its goroutine, channel and LeaseChanged went, with
# trainer.LeaseAware), and the fleet rejects a tenant controller
# outright in place of its reflect-based sharing check, and 15,974 once
# the §4.3 search went best-first: a heap of (lower bound, index) keys
# replaced the probe phase and both worker-pool fan-outs, the backbone
# floors became a slice, and disttrain-plan -parallelism went, and
# 15,994 once a tenant was admitted at class cost: the +20 are the
# per-spec limits Run keeps in place of copying cfg.Jobs, the running
# snapshot extended on admission (admitRunning) and served capped, the
# lease table's exact-size Free/Failed/Leases (nodesOwnedBy, one backing
# array), sortQueue's inversion pass and the Job's lazy prefetch
# channel, net of leaseTable.Check and the counting loops that went
# (fleet-steady work_per_cpu_s 228k -> 309k), and 15,108 once examples/
# went: the ten walkthrough programs (-800; the CLIs run eight of them,
# and the reordering and StepCCL timeline ones became 108 lines of
# testable Example in _test.go files) and the library code only they
# reached (-86: pipeline's Gantt and StageOps, reorder.IntraReorder,
# the controller's CurrentPlan, and the prefetch depth, co-located
# iteration and StepCCL remap and chunk arguments every call fixed),
# and still 15,108 once the disk store became one append-only log per
# directory: the scan and the incremental index are paid for by the
# per-file codec, store.ReplaceFile (folded into
# metrics.WriteFileAtomic), the unused Mem.Len and redundant docs, and
# 15,185 once a trace kept only what it must: the +77 are
# metrics/trace.go +78 (the process-wide label table and Intern, the
# typed Arg with Int and Str, the encoding/json string escaper and the
# sorted-key args writer, net of the per-trace label index, the Args map
# side table and the per-write label quoting), metrics.go +3 (the
# package doc) and the trainer +26 (the process-wide F<mb>/B<mb> table,
# the package-level phase labels and the class's once-resolved
# execution order), net of pipeline -9 (Order and the times-only Span
# in place of the op-copy path, SimulateUntraced and the per-call
# dependency loop) and fleet.noteArg (-21) — fleet-churn work_per_cpu_s
# 16.6k -> 18.7k, a traced churn op 1.18x an untraced one's CPU ->
# 1.04x.
# ROADMAP aim 2 wants the number to shrink, so lower it when a PR
# removes code; raising it is a deliberate edit that says in CHANGES.md
# what the added lines buy.
LOC_CEILING ?= 15185

.PHONY: all build fmt vet test race determinism bench bench-json fuzz cover loc loc-gate profile profile-plan staticcheck ci

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
# so DETERMINISM_TESTS is the one list of those gates.
DETERMINISM_TESTS = TestConcurrentRuntimeEquivalence|TestTraceByteIdenticalToSequential|TestFleetDeterminism|TestFleetOneJobEquivalence|TestPriorityDeterminism|TestFleetPreprocessDeterminism|TestControllerSteadyByteIdentical|TestCheckpointsSavedIsExact|TestFleetResolvesEachClassOnce
determinism:
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
# runs. The smoke-only benchmarks (`make bench`) are not recorded.
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
		-plan-cache-dir $(PROF_DIR)/plan-cache \
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
# connection handler reads) and the scenario grammar — four rewrites
# against the code they replaced, bit for bit: the pixel kernel against
# the staged decode/resize/pack helpers (corrupted streams included)
# and its word-at-a-time filter on arbitrary pixels,
# the §4.3 subproblem kernel against its closure-based oracle, the
# trace log against the sharded recorder and the compiled sample cost
# model against the formulas it was compiled from — the search's prune
# bound against brute force over every constructible allocation, and
# the two scratch-owning kernels, one long-lived Simulator / Reorderer
# against a fresh one per call, the shared 1F1B execution order against
# the loop that found it as it ran, and the corpus's closed-form generator
# against math/rand (the seeded corpora always run in plain `make
# test`) — and the plan store's log scanner, the whole of what an
# unsynced log promises, and the data plane's generational window
# against a map that keeps every put.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseBatch -fuzztime=5s ./internal/preprocess
	$(GO) test -run='^$$' -fuzz=FuzzServerRequest -fuzztime=5s ./internal/preprocess
	$(GO) test -run='^$$' -fuzz=FuzzPixelKernel -fuzztime=5s ./internal/preprocess
	$(GO) test -run='^$$' -fuzz=FuzzPatchFilter -fuzztime=5s ./internal/preprocess
	$(GO) test -run='^$$' -fuzz=FuzzScenarioParse -fuzztime=5s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzSubproblemRefine -fuzztime=5s ./internal/orchestrator
	$(GO) test -run='^$$' -fuzz=FuzzDiscreteBound -fuzztime=5s ./internal/orchestrator
	$(GO) test -run='^$$' -fuzz=FuzzTraceEquivalence -fuzztime=5s ./internal/metrics
	$(GO) test -run='^$$' -fuzz=FuzzSamplePricing -fuzztime=5s ./internal/profiler
	$(GO) test -run='^$$' -fuzz=FuzzSimulatorReuse -fuzztime=5s ./internal/pipeline
	$(GO) test -run='^$$' -fuzz=FuzzExecOrder -fuzztime=5s ./internal/pipeline
	$(GO) test -run='^$$' -fuzz=FuzzReordererReuse -fuzztime=5s ./internal/reorder
	$(GO) test -run='^$$' -fuzz=FuzzSeededRand -fuzztime=5s ./internal/data
	$(GO) test -run='^$$' -fuzz=FuzzLogScan -fuzztime=5s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzWindow -fuzztime=5s ./internal/window

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

# loc-gate fails when that number grows past LOC_CEILING.
loc-gate:
	@total=$$($(MAKE) -s loc); \
	echo "non-test Go outside benchmark/: $$total lines (ceiling $(LOC_CEILING))"; \
	[ "$$total" -le "$(LOC_CEILING)" ] || \
		{ echo "FAIL: $$total lines is over the $(LOC_CEILING)-line ceiling"; exit 1; }

ci: build fmt vet staticcheck test race determinism bench fuzz cover loc-gate
