package disttrain

// The root benchmark file holds what `make bench-diff` gates against
// BENCH_fleet.json — fleet, shared-preprocessing-service, plan-cache
// and cold-admission throughput, each with a measurement loop, a
// spin-normalized rate and an allocs/op tripwire — plus the one
// mechanism ablation nothing else measures, the StepCCL executor. The
// paper's tables and figures are
// experiments pinned by goldens (internal/experiments/testdata), and
// per-layer microsecond numbers come from the benchmark/ ledger.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/stepccl"
	"disttrain/internal/store"
	"disttrain/internal/trainer"

	clusterpkg "disttrain/internal/cluster"
)

func benchSpec(b *testing.B, m model.MLLM, nodes, bs int) orchestrator.Spec {
	b.Helper()
	cl := clusterpkg.Production(nodes)
	p, err := profiler.New(profiler.DefaultOptions(cl, m))
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		b.Fatal(err)
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}
}

// BenchmarkStepCCLExecutor compares the strawman and overlapped
// executors on a realistic shard shape.
func BenchmarkStepCCLExecutor(b *testing.B) {
	e, err := stepccl.NewExecutor(8, 8, 64, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("strawman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RunStrawman()
		}
	})
	b.Run("overlapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RunOverlapped()
		}
	})
}

// BenchmarkFleetThroughput sweeps the multi-tenant fleet runtime over
// 1/4/16/64 concurrent jobs — identical tenants on 2-node leases, so the
// shared plan cache collapses every run to a single §4.3 search — and
// reports aggregate training iterations per wall-clock second
// (iters/s) and per CPU second (cpu-iters/s). On a multi-core machine
// the aggregate wall rate should grow with the tenant count (cross-job
// parallelism on top of each job's own rank workers). Both metrics
// land in the `make bench-json` baseline; the `make bench-diff`
// regression gate compares calibration-normalized norm-iters/s
// because it stays stable when other tenants contend for the machine
// or CPU frequency drifts between runs.
//
// Iterations per job scale inversely with the job count (floor 2) so
// every sub-benchmark op performs comparable total work: at a uniform
// 2 iters the jobs=1 op finished in ~3ms of CPU and its measured rate
// jittered ±15% sample to sample, tripping the regression band, while
// the long jobs=16/64 ops held within ±5%.
func BenchmarkFleetThroughput(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 4, 16, 64} {
		itersPerJob := max(2, 32/jobs)
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			spec := benchSpec(b, model.MLLM9B(), 2*jobs, 32)
			tmpl := trainer.DistTrainConfig(spec, nil, corpus)
			tmpl.Parallelism = 2 // rank workers per job; scaling comes from cross-job fan-out
			cfg := fleet.Config{Cluster: spec.Cluster}
			for j := 0; j < jobs; j++ {
				cfg.Jobs = append(cfg.Jobs, fleet.JobSpec{
					Name: fmt.Sprintf("t%d", j), Train: tmpl,
					Iters: itersPerJob, MinNodes: 2, MaxNodes: 2,
				})
			}
			spinBefore := spinRate()
			b.ResetTimer()
			cpuStart := processCPUTime()
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, jr := range res.Jobs {
					if jr.Err != nil {
						b.Fatal(jr.Err)
					}
				}
				if res.PlanSearches != 1 {
					b.Fatalf("identical tenants ran %d plan searches", res.PlanSearches)
				}
			}
			cpu := processCPUTime() - cpuStart
			b.StopTimer()
			spin := (spinBefore + spinRate()) / 2
			totalIters := float64(jobs * itersPerJob * b.N)
			b.ReportMetric(totalIters/b.Elapsed().Seconds(), "iters/s")
			if cpu > 0 {
				rate := totalIters / cpu.Seconds()
				b.ReportMetric(rate, "cpu-iters/s")
				if spin > 0 {
					b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
				}
			}
		})
	}
}

// BenchmarkServiceThroughput measures the fleet-shared preprocessing
// tier end to end: K tenants multiplexing tenant-keyed fetches over
// one 2-producer service through the WFQ admission path and the real
// TCP wire protocol. Each op delivers one training iteration to every
// tenant (all DP ranks fetched concurrently), so the gated rate —
// tenant-iterations per CPU second, spin-normalized like the fleet
// sweep — is the tier's aggregate delivery rate, and allocs/op pins
// the per-iteration allocation budget of the shared fetch path
// (admission, failover ring, cache partition, wire round-trip) in the
// `make bench-diff` gate. The corpus is shrunken LAION (the pixel
// pipeline runs for real) so the number tracks multiplexing overhead,
// not image decode throughput.
func BenchmarkServiceThroughput(b *testing.B) {
	shrink := data.LAION400M()
	shrink.SeqLen = 512
	shrink.MaxResolution = 64
	shrink.ResMedian = 48
	corpus, err := data.NewCorpus(shrink)
	if err != nil {
		b.Fatal(err)
	}
	const dp = 2
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			fleet, err := preprocess.StartFleet(preprocess.Config{
				Source:      corpus,
				GlobalBatch: 8,
				DPSize:      1,
				Microbatch:  1,
				Workers:     4,
				Readahead:   1,
			}, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer fleet.Close()
			svc, err := preprocess.NewService(preprocess.ServiceConfig{
				Addrs:    fleet.Addrs(),
				Capacity: 2 * tenants * dp,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			handles := make([]*preprocess.Tenant, tenants)
			for i := range handles {
				handles[i], err = svc.Register(preprocess.TenantConfig{
					Name: fmt.Sprintf("t%d", i), MaxInflight: dp, DP: dp,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			spinBefore := spinRate()
			b.ReportAllocs()
			b.ResetTimer()
			cpuStart := processCPUTime()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, tenants*dp)
				for ti, h := range handles {
					for r := 0; r < dp; r++ {
						wg.Add(1)
						go func(slot int, h *preprocess.Tenant, rank int) {
							defer wg.Done()
							_, errs[slot] = h.Fetch(ctx, int64(i), rank)
						}(ti*dp+r, h, r)
					}
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			cpu := processCPUTime() - cpuStart
			b.StopTimer()
			spin := (spinBefore + spinRate()) / 2
			b.ReportMetric(float64(tenants*dp*b.N)/b.Elapsed().Seconds(), "fetches/s")
			totalIters := float64(tenants * b.N)
			if cpu > 0 {
				rate := totalIters / cpu.Seconds()
				b.ReportMetric(rate, "cpu-iters/s")
				if spin > 0 {
					b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
				}
			}
		})
	}
}

// refSpinRate pins the nominal machine the normalized throughput is
// expressed against: norm-iters/s equals cpu-iters/s on a machine
// whose calibration spin runs at 1e9 ops per CPU second. The constant
// cancels in any baseline-vs-run ratio; it only sets the scale.
const refSpinRate = 1e9

var spinSink uint64

// spinRate measures the machine's sustained integer-op rate with a
// fixed ~70ms xorshift spin (CPU time, not wall clock). CPU frequency
// scaling and noisy-neighbor throttling move a single-core runner's
// cpu-iters/s by tens of percent between runs — uniformly across job
// counts — which is exactly the drift a regression gate must not fail
// on. Each fleet sample divides its rate by the mean of a spin run
// immediately before and immediately after its timed loop, so the
// calibration sees the same fast-or-throttled machine state as the
// sample it normalizes and the state cancels out of the reported
// norm-iters/s. (A single peak calibration per process does not work:
// best-of-N spins always find the machine's fast state even when the
// benchmark windows ran throttled, which left ±15% state drift in the
// normalized rate.)
func spinRate() float64 {
	const n = 1 << 25
	start := processCPUTime()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	d := (processCPUTime() - start).Seconds()
	if d <= 0 {
		return 0
	}
	return n / d
}

// BenchmarkWarmPlanSearch quantifies the durable control plane: the
// cold variant pays a full §4.3 search per op (a fresh in-memory
// cache every time — the restart path without persistence), the warm
// variant serves the same spec through a fresh persistent cache
// instance over a populated on-disk store (the restart path with it).
// Every warm op asserts it ran zero searches and exactly one
// store-served warm hit, so the measured gap is the real
// load-and-decode path, not an accidental in-memory hit. Both
// variants land in the `make bench-json` baseline and the
// `make bench-diff` gate via spin-normalized norm-iters/s (one "iter"
// = one plan request). DISTTRAIN_PLAN_CACHE_DIR, when set, roots the
// warm store there instead of a temp dir — CI sets it to upload the
// populated cache directory as a build artifact.
func BenchmarkWarmPlanSearch(b *testing.B) {
	spec := benchSpec(b, model.MLLM9B(), 12, 96)
	opts := orchestrator.SearchOptions{Parallelism: 1}
	// Warm the profiler's cost memo so both variants measure search
	// vs load, not first-touch cost fills.
	want, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, op func() (*orchestrator.Plan, error)) {
		spinBefore := spinRate()
		b.ReportAllocs()
		b.ResetTimer()
		cpuStart := processCPUTime()
		for i := 0; i < b.N; i++ {
			got, err := op()
			if err != nil {
				b.Fatal(err)
			}
			if got.IterTime != want.IterTime {
				b.Fatalf("plan diverged from reference (%.6f vs %.6f)", got.IterTime, want.IterTime)
			}
		}
		cpu := processCPUTime() - cpuStart
		b.StopTimer()
		spin := (spinBefore + spinRate()) / 2
		if cpu > 0 {
			rate := float64(b.N) / cpu.Seconds()
			b.ReportMetric(rate, "cpu-iters/s")
			if spin > 0 {
				b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		run(b, func() (*orchestrator.Plan, error) {
			return orchestrator.NewPlanCache(opts).Plan(context.Background(), spec)
		})
		// Both variants gate their rate as a wholesale-collapse
		// detector, self-widened to ±60% via the band% metric (see
		// disttrain-benchjson): the cold search allocates ~440KB/op so
		// GC scheduling moves its run-to-run median ~20%, and the warm
		// lookup is syscall-bound I/O jitter — neither is noise that
		// spin normalization cancels. The real tripwire for both is
		// the deterministic allocs/op count: a warm path falling back
		// to a cold search jumps it by two orders of magnitude.
		// Reported after run(): ResetTimer inside it deletes user
		// metrics.
		b.ReportMetric(60, "band%")
	})
	b.Run("warm", func(b *testing.B) {
		dir := os.Getenv("DISTTRAIN_PLAN_CACHE_DIR")
		if dir == "" {
			dir = b.TempDir()
		}
		st, err := store.OpenDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := orchestrator.NewPersistentPlanCache(opts, st).Plan(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
		run(b, func() (*orchestrator.Plan, error) {
			c := orchestrator.NewPersistentPlanCache(opts, st)
			plan, err := c.Plan(context.Background(), spec)
			if err == nil && (c.Searches() != 0 || c.WarmHits() != 1) {
				return nil, fmt.Errorf("warm op ran %d searches, %d warm hits; want 0 and 1", c.Searches(), c.WarmHits())
			}
			return plan, err
		})
		// Same collapse-detector band as the cold variant; see above.
		b.ReportMetric(60, "band%")
	})
}

// BenchmarkColdAdmissionStorm measures admission under the worst-case
// cold burst: 16 jobs with distinct batch geometries — 16 distinct
// plan fingerprints — all arriving at round 0 against a fresh private
// plan cache, so every op pays 16 cold §4.3 searches. Admission is the
// same reserve-then-land flow in both sub-benchmarks and the results
// are byte-identical; what differs is the executor. /sequential
// (Planners <= 0, the default) runs each search synchronously at its
// enqueue point; /pool-4 batches the misses into shared waves on a
// 4-planner pool. The gated rate — cpu-iters/s, training iterations
// per process-CPU second — prices the pool's dispatch overhead:
// overlap cannot hide in it, and neither executor does less planning
// arithmetic than the other. Whether the pool earns its keep is the
// wall-clock iters/s pair on a record with >= 2 cores (the JSON
// records gomaxprocs). The deterministic tripwire is allocs/op
// (one-sided, like every fleet gate); the rate band self-widens to
// ±60% because 16 cold searches allocate enough per op for GC
// scheduling to move medians.
func BenchmarkColdAdmissionStorm(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 16
	const itersPerJob = 2
	spec := benchSpec(b, model.MLLM9B(), 2*jobs, 32)
	cfgFor := func(planners int) fleet.Config {
		cfg := fleet.Config{Cluster: spec.Cluster, Planners: planners}
		for j := 0; j < jobs; j++ {
			js := spec
			js.GlobalBatch = 32 + 8*j // distinct fingerprint, shared calibration
			tmpl := trainer.DistTrainConfig(js, nil, corpus)
			tmpl.Parallelism = 2
			cfg.Jobs = append(cfg.Jobs, fleet.JobSpec{
				Name: fmt.Sprintf("t%d", j), Train: tmpl,
				Iters: itersPerJob, MinNodes: 2, MaxNodes: 2,
			})
		}
		return cfg
	}
	for _, mode := range []struct {
		name     string
		planners int
	}{{"sequential", 0}, {"pool-4", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := cfgFor(mode.planners)
			spinBefore := spinRate()
			b.ReportAllocs()
			b.ResetTimer()
			cpuStart := processCPUTime()
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, jr := range res.Jobs {
					if jr.Err != nil {
						b.Fatal(jr.Err)
					}
				}
				if res.PlanSearches != jobs {
					b.Fatalf("storm ran %d plan searches, want %d cold", res.PlanSearches, jobs)
				}
			}
			cpu := processCPUTime() - cpuStart
			b.StopTimer()
			spin := (spinBefore + spinRate()) / 2
			totalIters := float64(jobs * itersPerJob * b.N)
			b.ReportMetric(totalIters/b.Elapsed().Seconds(), "iters/s")
			if cpu > 0 {
				rate := totalIters / cpu.Seconds()
				b.ReportMetric(rate, "cpu-iters/s")
				if spin > 0 {
					b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
				}
			}
			// Self-widened collapse detector; allocs/op is the tight
			// gate (reported after the run: ResetTimer deletes user
			// metrics).
			b.ReportMetric(60, "band%")
		})
	}
}
