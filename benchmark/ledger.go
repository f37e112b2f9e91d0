package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// runTraced is a driver run with --trace 1. It runs a fixed set of ops
// twice, each time on a freshly set-up instance: once plain, once with
// spans and seam decorators on. The difference between the two is the
// cost of tracing; the spans, the counters and the layer replays that
// follow fill the ledger. The spans are written to spansPath.
func runTraced(w workload, seed uint64, tmp, spansPath string) (*pass, map[string]float64, error) {
	inst, refs, err := prepare(w, seed, tmp)
	if err != nil {
		return nil, nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds(), processCPU()
	plain := runOps(inst, w.traceOps, 0, refs, nil)
	gc1, cpu1 := gcCPUSeconds(), processCPU()
	runtime.ReadMemStats(&m1)
	inst.close()

	if inst, refs, err = prepare(w, seed, tmp); err != nil {
		return nil, nil, err
	}
	defer inst.close()
	tr := newTracer()
	inst.trace(tr)
	traced := runOps(inst, w.traceOps, 0, refs, tr)
	inst.trace(nil)

	l := ledger{}
	l["bench.ops"] = float64(len(traced.wall))
	l["bench.tail_pct"], l["bench.op_ms_tail"] = tailPercentile(scale(plain.wall, 1e3))
	l["bench.block_spread"] = spread(blockValues(plain.wall, median))
	l["bench.trace_overhead_share"] = traced.opMsP50()/plain.opMsP50() - 1
	f := plain.blockSpeed()
	l["bench.speed_factor"] = median(f[:])
	l["bench.raw_op_ms_p50"] = plain.rawOpMs()
	if work := sum(plain.work); work > 0 {
		l["proc.allocs_per_work"] = float64(m1.Mallocs-m0.Mallocs) / work
		l["proc.alloc_kb_per_work"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / work
	}
	if cpu := (cpu1 - cpu0).Seconds(); cpu > 0 {
		l["proc.gc_cpu_share"] = (gc1 - gc0) / cpu
	}
	if traced.mfuDen > 0 {
		l["sim_mfu_pct"] = 100 * traced.mfuNum / traced.mfuDen
	}
	if err := w.ledger(inst, tr, plain, traced, l); err != nil {
		return nil, nil, fmt.Errorf("%s: ledger: %w", w.name, err)
	}
	if err := writeSpans(spansPath, tr.snapshot()); err != nil {
		return nil, nil, err
	}
	// Where the traced ops' wall time went, by span name: a span's self
	// time is what its children do not cover.
	self := selfByName(opSpans(tr))
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Printf("self time of the %d traced ops by span, as a share of their wall time (concurrent spans add up to more than 100%%; spans in %s):\n", len(traced.wall), spansPath)
	for _, name := range names {
		fmt.Printf("  %-36s %12.3f ms %5.1f%%\n", name, self[name]*1e3, 100*self[name]/sum(traced.wall))
	}
	both := &pass{
		wall:   append(plain.wall, traced.wall...),
		failed: plain.failed + traced.failed,
		errs:   append(plain.errs, traced.errs...),
		digest: traced.digest,
	}
	return both, l, nil
}

// opSpans keeps the spans of timed ops: the warm-up op and replays
// record under op -1 or not at all.
func opSpans(tr *tracer) []span {
	var out []span
	for _, s := range tr.snapshot() {
		if s.Op >= 0 && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// scale multiplies every value.
func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// coveredShare is the share of op time covered by child spans: 1 minus
// the ops' self time over their duration. On a workload whose ops call
// one layer only, it is that layer's share of the op.
func coveredShare(spans []span) float64 {
	self, total := 0.0, 0.0
	for i, d := range selfTimes(spans) {
		if spans[i].Name == "op" {
			self += d.Seconds()
			total += (spans[i].End - spans[i].Start).Seconds()
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - self/total
}

// fleetLedger fills the metrics both fleet workloads read off their
// traced ops: rounds, scheduler seam, lease changes, plan-cache
// counters.
func fleetLedger(l ledger, tr *tracer, traced *pass) {
	t := traced.tally
	l["fleet.rounds"] = t.rounds
	round := scale(durations(opSpans(tr), "fleet.round"), 1e-3)
	l["fleet.round_us_p50"] = median(round)
	l["fleet.round_us_p95"] = percentile(round, 95)
	if t.rounds > 0 {
		l["fleet.sched_us_per_round"] = float64(tr.sched.busy.Microseconds()) / t.rounds
		l["fleet.sched_calls_per_round"] = float64(tr.sched.calls) / t.rounds
	}
	l["fleet.resizes"] = t.resizes
	l["fleet.preemptions"] = t.preemptions
	if t.started > 0 {
		l["fleet.admit_wait_rounds_mean"] = t.waited / t.started
	}
	plannerCounts(l, t)
}

// plannerCounts fills the plan-cache counters and the mean estimated
// iteration time of the plans the traced ops chose.
func plannerCounts(l ledger, t tally) {
	l["orchestrator.searches"] = t.searches
	l["orchestrator.hits"] = t.hits
	l["orchestrator.warm_seeds"] = t.warmSeeds
	l["orchestrator.coalesced"] = t.coalesced
	l["orchestrator.store_errs"] = t.storeErrs
	if t.plans > 0 {
		l["orchestrator.est_iter_s_mean"] = t.estIter / t.plans
	}
}

// replayOps is how many ops the costlier replays repeat.
const replayOps = 8

// wallRatio runs ops 0..replayOps-1 two ways and returns the first
// way's total wall time over the second's.
func wallRatio(a, b func(i int) error) (float64, error) {
	var at [2]float64
	for i := 0; i < replayOps; i++ {
		for k, fn := range []func(int) error{a, b} {
			var err error
			at[k] += secondsOf(func() { err = fn(i) })
			if err != nil {
				return 0, err
			}
		}
	}
	return at[0] / at[1], nil
}

// eachJob runs fn(0..n-1) on `concurrency` goroutines, the way the
// fleet steps its tenants: replayed CPU is then spent under the same
// scheduler load as in the op (a lone goroutine on two Ps pays for an
// idle P spinning beside it).
func eachJob(n int, fn func(k int) error) error {
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n && errs[w] == nil; k += concurrency {
				errs[w] = fn(k)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cpuOf runs fn and returns the process CPU seconds it used.
func cpuOf(fn func() error) (float64, error) {
	c0 := processCPU()
	err := fn()
	return (processCPU() - c0).Seconds(), err
}

func ledgerSteady(inst instance, tr *tracer, plain, traced *pass, l ledger) error {
	s := inst.(*steadyInstance)
	fleetLedger(l, tr, traced)
	lease := s.leaseSpec()
	plan, err := s.cache.Plan(context.Background(), lease)
	if err != nil {
		return err
	}

	// Where an op's CPU goes: replay every tenant of an op standalone
	// (the same trainer.New, NewJob, Step and Finish the fleet issues)
	// and the same number of plan-cache hits; the rest is the fleet.
	var trainerCPU, planCPU, opCPU float64
	for i := 0; i < min(replayOps, len(plain.cpu)); i++ {
		corpus, err := newCorpus(corpusSeed(s.seed, "fleet-steady", i))
		if err != nil {
			return err
		}
		c, err := cpuOf(func() error {
			return eachJob(steadyTenants, func(int) error {
				cfg := trainer.DistTrainConfig(s.spec, plan, corpus)
				cfg.Parallelism = concurrency
				ls := packedLease(steadyLease)
				cfg.Lease = &ls
				_, _, err := runJob(cfg, steadyIters, nil, nil)
				return err
			})
		})
		if err != nil {
			return err
		}
		trainerCPU += c
		c, err = cpuOf(func() error {
			for t := 0; t < steadyTenants; t++ {
				if _, err := s.cache.Plan(context.Background(), lease); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		planCPU += c
		opCPU += plain.cpu[i]
	}
	l["share.trainer"] = trainerCPU / opCPU
	l["share.plan"] = planCPU / opCPU
	l["fleet.self_cpu_share"] = 1 - (trainerCPU+planCPU)/opCPU

	if l["fleet.workers_speedup"], err = wallRatio(
		func(i int) error { _, _, err := s.run(i, 1, -1); return err },
		func(i int) error { _, _, err := s.run(i, concurrency, -1); return err },
	); err != nil {
		return err
	}

	corpus, err := newCorpus(corpusSeed(s.seed, "fleet-steady", 0))
	if err != nil {
		return err
	}
	if err := replayTrainer(l, s.spec, corpus, steadyLease, steadyLease+1, steadyIters, false); err != nil {
		return err
	}
	if err := replayData(l, lease, plan, corpus.Spec(), steadyIters); err != nil {
		return err
	}
	if err := replayCalibrate(l, s.spec.Profiler.Options()); err != nil {
		return err
	}
	pr, err := replayPlanner([]specPair{{lease, scopeSpec(s.spec, steadyLease+1, false)}})
	if err != nil {
		return err
	}
	pr.fill(l)
	fillCandidates(l, &pr.cand, int64(len(pr.cold)+len(pr.seeded)), sum(pr.cold)+sum(pr.seeded))
	l["orchestrator.parallelism_speedup"], err = searchSpeedup([]orchestrator.Spec{lease})
	return err
}

func ledgerChurn(inst instance, tr *tracer, plain, traced *pass, l ledger) error {
	c := inst.(*churnInstance)
	fleetLedger(l, tr, traced)
	spans := opSpans(tr)
	storeLedger(l, tr, spans)

	// Scenario layer: parse the generated texts again, on their own.
	var parseS, events float64
	for i := range traced.wall {
		text := genChurn(c.seed, i).Scenario
		var sc scenario.Scenario
		var err error
		parseS += secondsOf(func() { sc, err = scenario.Parse(text) })
		if err != nil {
			return err
		}
		if sched, ok := sc.(*scenario.Schedule); ok {
			events += float64(len(sched.Events()))
		}
	}
	n := float64(len(traced.wall))
	l["scenario.parse_us"] = parseS / n * 1e6
	l["scenario.events"] = events / n

	// Where an op's CPU goes. Planning: the op's CPU on a cold cache
	// minus its CPU when re-run on the cache it just filled (every plan
	// a hit). Training: each tenant's iterations replayed standalone on
	// its final plan. What is left is the fleet: admission, rounds,
	// resizes, trace merging.
	var trainerCPU, planCPU, opCPU float64
	var first churnRun
	for i := 0; i < replayOps; i++ {
		dir, err := os.MkdirTemp(c.tmp, "plans-") // removed with c.tmp when the run exits
		if err != nil {
			return err
		}
		cache, err := c.newCache(dir, -1, i)
		if err != nil {
			return err
		}
		var cold churnRun
		coldCPU, err := cpuOf(func() (err error) { cold, err = c.run(i, concurrency, concurrency, true, cache, -1); return })
		if err != nil {
			return err
		}
		warmCPU, err := cpuOf(func() error { _, err := c.run(i, concurrency, concurrency, true, cache, -1); return err })
		if err != nil {
			return err
		}
		if i == 0 {
			first = cold
		}
		corpus, err := newCorpus(corpusSeed(c.seed, "fleet-churn", i))
		if err != nil {
			return err
		}
		tc, err := cpuOf(func() error {
			return eachJob(len(cold.res.Jobs), func(k int) error {
				jr := cold.res.Jobs[k]
				if jr.Result == nil || len(jr.Result.Iterations) == 0 {
					return nil
				}
				js := c.spec
				js.GlobalBatch = cold.gen.Jobs[jr.Spec].Batch
				cfg := trainer.DistTrainConfig(js, jr.Plan, corpus)
				cfg.Parallelism = concurrency
				ls := packedLease((jr.Plan.TotalGPUs() + js.Cluster.GPUsPerNode - 1) / js.Cluster.GPUsPerNode)
				cfg.Lease = &ls
				cfg.PlacementPricing = true
				_, _, err := runJob(cfg, len(jr.Result.Iterations), nil, nil)
				return err
			})
		})
		if err != nil {
			return err
		}
		trainerCPU += tc
		if d := coldCPU - warmCPU; d > 0 {
			planCPU += d
		}
		opCPU += coldCPU
	}
	l["share.trainer"] = trainerCPU / opCPU
	l["share.plan"] = planCPU / opCPU
	l["fleet.self_cpu_share"] = 1 - (trainerCPU+planCPU)/opCPU

	// The op as timed, against the same op with one knob turned.
	variant := func(workers, planners int, trace bool) func(int) error {
		return func(i int) error { _, err := c.run(i, workers, planners, trace, nil, -1); return err }
	}
	asTimed := variant(concurrency, concurrency, true)
	var err error
	if l["fleet.workers_speedup"], err = wallRatio(variant(1, concurrency, true), asTimed); err != nil {
		return err
	}
	if l["fleet.planners_speedup"], err = wallRatio(variant(concurrency, fleet.SequentialPlanners, true), asTimed); err != nil {
		return err
	}

	// Observability layer: what Config.Trace costs an op, and what
	// writing the merged timeline costs.
	ratio, err := wallRatio(asTimed, variant(concurrency, concurrency, false))
	if err != nil {
		return err
	}
	l["metrics.trace_cost_share"] = ratio - 1
	l["metrics.trace_events"] = traced.tally.traceEvents
	l["metrics.trace_write_ms"] = secondsOf(func() {
		err = first.res.Trace.WriteJSONFile(filepath.Join(c.tmp, "fleet-trace.json"))
	}) * 1e3
	if err != nil {
		return err
	}

	// Lower layers, on op 0's first job geometry and its specs.
	corpus, err := newCorpus(corpusSeed(c.seed, "fleet-churn", 0))
	if err != nil {
		return err
	}
	js := c.spec
	js.GlobalBatch = first.gen.Jobs[0].Batch
	if err := replayTrainer(l, js, corpus, churnMinNodes, churnMinNodes+1, first.gen.Jobs[0].Iters, true); err != nil {
		return err
	}
	lease := scopeSpec(js, churnMinNodes, true)
	plan, err := orchestrator.NewPlanCache(orchestrator.SearchOptions{Parallelism: concurrency}).Plan(context.Background(), lease)
	if err != nil {
		return err
	}
	if err := replayData(l, lease, plan, corpus.Spec(), first.gen.Jobs[0].Iters); err != nil {
		return err
	}
	if err := replayCalibrate(l, c.spec.Profiler.Options()); err != nil {
		return err
	}
	var pairs []specPair
	var specs []orchestrator.Spec
	for k, j := range first.gen.Jobs {
		sp := c.spec
		sp.GlobalBatch = j.Batch
		nodes := churnMinNodes + k%3
		pairs = append(pairs, specPair{scopeSpec(sp, nodes, true), scopeSpec(sp, nodes+1, true)})
		specs = append(specs, scopeSpec(sp, nodes, true))
	}
	pr, err := replayPlanner(pairs)
	if err != nil {
		return err
	}
	pr.fill(l)
	// Candidate counts come from the traced ops' own searches; only the
	// time per candidate needs the replay, where searches run alone.
	fillCandidates(l, &tr.cand, int64(l["orchestrator.searches"]), 0)
	if total := pr.cand.total(); total > 0 {
		l["orchestrator.candidate_us"] = (sum(pr.cold) + sum(pr.seeded)) / float64(total) * 1e6
	}
	l["orchestrator.parallelism_speedup"], err = searchSpeedup(specs)
	return err
}

// storeLedger fills the store metrics from the timing decorator's
// spans.
func storeLedger(l ledger, tr *tracer, spans []span) {
	puts, gets := durations(spans, "store.put"), durations(spans, "store.get")
	l["store.put_us_p50"] = median(puts) / 1e3
	l["store.get_us_p50"] = median(gets) / 1e3
	l["store.puts"] = float64(len(puts))
	l["store.gets"] = float64(len(gets))
	if len(puts) > 0 {
		l["store.kb_per_plan"] = float64(tr.putBytes.Load()) / 1024 / float64(len(puts))
	}
}

func ledgerSweep(inst instance, tr *tracer, plain, traced *pass, l ledger) error {
	s := inst.(*sweepInstance)
	spans := opSpans(tr)
	storeLedger(l, tr, spans)
	cold, seeded := durations(spans, "orchestrator.cold"), durations(spans, "orchestrator.seeded")
	l["orchestrator.cold_ms_p50"] = median(cold) / 1e6
	l["orchestrator.seeded_ms_p50"] = median(seeded) / 1e6
	l["orchestrator.warm_hit_us_p50"] = median(durations(spans, "orchestrator.warm_hit")) / 1e3
	last := traced.sweep
	if last == nil || last.second == nil {
		return fmt.Errorf("the last traced op did not complete")
	}
	plannerCounts(l, traced.tally)
	fillCandidates(l, &tr.cand, int64(l["orchestrator.searches"]), (sum(cold)+sum(seeded))/1e9)
	l["share.plan"] = coveredShare(spans)

	// In-memory hits: the last op's reopened cache still holds every
	// plan it served from the store.
	reqs := s.requests(len(traced.wall) - 1)
	var mem []float64
	for _, sp := range reqs {
		var err error
		mem = append(mem, secondsOf(func() { _, err = last.second.Plan(context.Background(), sp) }))
		if err != nil {
			return err
		}
	}
	l["orchestrator.mem_hit_us_p50"] = median(mem) * 1e6
	var err error
	if l["orchestrator.parallelism_speedup"], err = searchSpeedup(reqs[:len(reqs)/2]); err != nil {
		return err
	}

	p := s.profilers["72b/"]
	shape := p.MeanShape()
	const calls = 200000
	l["profiler.sample_cost_ns"] = secondsOf(func() {
		for i := 0; i < calls; i++ {
			sink += p.SampleTrain(model.Backbone, 8, shape)
		}
	}) / calls * 1e9
	return replayCalibrate(l, p.Options())
}

// sink keeps timed pure calls from being optimised away.
var sink float64

func ledgerFanin(inst instance, tr *tracer, plain, traced *pass, l ledger) error {
	f := inst.(*faninInstance)
	spans := opSpans(tr)
	fetch := scale(durations(spans, "preprocess.fetch"), 1e-6)
	l["preprocess.fetch_ms_p50"] = median(fetch)
	l["preprocess.fetch_ms_p95"] = percentile(fetch, 95)
	l["preprocess.cache_hit_us"] = mean(durations(spans, "preprocess.refetch")) / 1e3
	l["share.preprocess"] = coveredShare(spans)
	snap := f.svc.Snapshot()
	l["preprocess.fetches"] = float64(snap.Fetches)
	l["preprocess.rejections"] = float64(snap.Rejections)
	l["preprocess.cache_hit_share"] = snap.CacheHitRate

	// The layer's parts, alone: pixel work per sample, an iteration built
	// in process on a cold producer, one batch over the wire from a
	// producer that already holds it.
	const iters = 8
	next := int64(len(traced.wall) + 1) // first iteration no op has touched
	var sampleS, batchS float64
	samples := 0
	for k := int64(0); k < iters; k++ {
		corpus, err := data.NewCorpus(f.corpus.Spec())
		if err != nil {
			return err
		}
		var batch []data.Sample
		batchS += secondsOf(func() { batch = corpus.GlobalBatch(next+k, faninBatch) })
		for _, s := range batch {
			var err error
			sampleS += secondsOf(func() { _, err = preprocess.ProcessSample(s) })
			if err != nil {
				return err
			}
			samples++
		}
	}
	l["data.global_batch_us"] = batchS / iters * 1e6
	l["preprocess.sample_us"] = sampleS / float64(samples) * 1e6

	cfg := faninServerConfig(f.corpus)
	cfg.Readahead = 0
	srv, err := preprocess.NewServer(cfg)
	if err != nil {
		return err
	}
	var buildS float64
	for k := int64(0); k < iters && err == nil; k++ {
		buildS += secondsOf(func() { _, err = srv.FetchTenant(0, faninDP, next+k, 0) })
	}
	srv.Close()
	if err != nil {
		return err
	}
	l["preprocess.build_ms"] = buildS / iters * 1e3

	cl, err := preprocess.Dial(f.fleet.Addrs()[0])
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	var wireS, wireBytes float64
	for k := int64(0); k < iters; k++ {
		// The first fetch makes the producer hold the iteration; the
		// second is encode, loopback and decode only.
		if _, err := cl.FetchTenant(ctx, 0, faninDP, next+k, 0); err != nil {
			return err
		}
		var rb *preprocess.RankBatch
		wireS += secondsOf(func() { rb, err = cl.FetchTenant(ctx, 0, faninDP, next+k, 0) })
		if err != nil {
			return err
		}
		for _, mb := range rb.Microbatches {
			for _, p := range mb {
				wireBytes += float64(len(p.TokenPayload))
			}
		}
	}
	l["preprocess.wire_ms"] = wireS / iters * 1e3
	l["preprocess.wire_mb_per_s"] = wireBytes / (1 << 20) / wireS

	// Failover: kill producer 0, then fetch a fresh iteration slot by
	// slot; the first fetch whose primary was the dead producer pays
	// the failed attempt and the retry elsewhere.
	if err := f.fleet.FailProducer(0); err != nil {
		return err
	}
	for slot := 0; slot < faninTenants*faninDP; slot++ {
		before := f.svc.Snapshot().Failovers
		var err error
		took := secondsOf(func() { _, err = f.tenants[slot/faninDP].Fetch(ctx, next+iters, slot%faninDP) })
		if err != nil {
			return err
		}
		if f.svc.Snapshot().Failovers > before {
			l["preprocess.failover_fetch_ms"] = took * 1e3
			break
		}
	}
	l["preprocess.failovers"] = float64(f.svc.Snapshot().Failovers)
	return nil
}
