package main

// metricDef declares one metric: its name, unit and direction, and for
// an end-to-end metric the regression bound as a share of the parent's
// median. BENCHMARK.json at the repo root carries the same
// declarations; a self-test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Exact marks ledger metrics that are deterministic counts or
	// simulated statistics: at equal seed they repeat exactly, and
	// compare flags any difference at all.
	Exact bool
}

// endToEnd are the gated metrics, reported by every workload from a run
// with tracing off.
//
// All four carry the widest bound the contract allows. Ten runs at ten
// seeds spread 2-5% between their quartiles on the two timings once
// they are scaled to reference machine speed (speed.go), and 2-9% on
// peak_rss_mb, the high-water mark of a 20-45 MB process that moves
// with where the collector's cycles fall. But the recording box has
// slow phases that last minutes, and the scaling takes out only part of
// a deep one: two sets of preprocess-fanin runs of one binary, a quarter
// of an hour apart, had medians 15% apart after scaling (37% before). A
// bound below that would reject innocent changes. setup_s is a tenth of
// a second on one workload, where a few milliseconds are already
// several percent.
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the ungated ledger, reported by every workload from a
// traced run. A workload that does not exercise a layer reports 0 for
// it, which is the "should not move" side of each prediction.
var perLayer = []metricDef{
	// harness
	{Name: "bench.ops", Unit: "count", Better: "higher", Exact: true},
	{Name: "bench.op_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "bench.tail_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "bench.block_spread", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.speed_factor", Unit: "x", Better: "higher"},
	{Name: "bench.raw_op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_work", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_work", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "sim_mfu_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "share.trainer", Unit: "share", Better: "higher"},
	{Name: "share.plan", Unit: "share", Better: "higher"},
	{Name: "share.preprocess", Unit: "share", Better: "higher"},
	// scenario
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
	{Name: "scenario.events", Unit: "count", Better: "higher", Exact: true},
	// data, profiler
	{Name: "data.global_batch_us", Unit: "us", Better: "lower"},
	{Name: "profiler.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "profiler.sample_cost_ns", Unit: "ns", Better: "lower"},
	// solve
	{Name: "solve.waterfill_us", Unit: "us", Better: "lower"},
	// orchestrator
	{Name: "orchestrator.cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.seeded_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.warm_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "orchestrator.mem_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "orchestrator.candidates_per_search", Unit: "count", Better: "lower", Exact: true},
	{Name: "orchestrator.pruned_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "orchestrator.candidate_us", Unit: "us", Better: "lower"},
	{Name: "orchestrator.searches", Unit: "count", Better: "lower", Exact: true},
	{Name: "orchestrator.hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "orchestrator.warm_seeds", Unit: "count", Better: "higher", Exact: true},
	{Name: "orchestrator.coalesced", Unit: "count", Better: "higher", Exact: true},
	{Name: "orchestrator.store_errs", Unit: "count", Better: "lower", Exact: true},
	{Name: "orchestrator.est_iter_s_mean", Unit: "s", Better: "lower", Exact: true},
	{Name: "orchestrator.parallelism_speedup", Unit: "x", Better: "higher"},
	// store
	{Name: "store.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.puts", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.gets", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.kb_per_plan", Unit: "KB", Better: "lower", Exact: true},
	// pipeline
	{Name: "pipeline.simulate_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.bubble_share", Unit: "share", Better: "lower", Exact: true},
	// reorder
	{Name: "reorder.intra_us", Unit: "us", Better: "lower"},
	{Name: "reorder.inter_us", Unit: "us", Better: "lower"},
	{Name: "reorder.load_imbalance", Unit: "x", Better: "lower", Exact: true},
	// trainer
	{Name: "trainer.iter_us", Unit: "us", Better: "lower"},
	{Name: "trainer.new_us", Unit: "us", Better: "lower"},
	{Name: "trainer.resize_us", Unit: "us", Better: "lower"},
	{Name: "trainer.parallelism_speedup", Unit: "x", Better: "higher"},
	{Name: "trainer.sim_iter_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "trainer.sim_straggler_spread", Unit: "share", Better: "lower", Exact: true},
	// preprocess
	{Name: "preprocess.sample_us", Unit: "us", Better: "lower"},
	{Name: "preprocess.build_ms", Unit: "ms", Better: "lower"},
	{Name: "preprocess.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "preprocess.wire_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "preprocess.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "preprocess.fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "preprocess.fetch_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "preprocess.failover_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "preprocess.fetches", Unit: "count", Better: "higher", Exact: true},
	{Name: "preprocess.failovers", Unit: "count", Better: "lower"},
	{Name: "preprocess.rejections", Unit: "count", Better: "lower"},
	{Name: "preprocess.cache_hit_share", Unit: "share", Better: "higher", Exact: true},
	// fleet
	{Name: "fleet.rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.round_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.round_us_p95", Unit: "us", Better: "lower"},
	{Name: "fleet.sched_us_per_round", Unit: "us", Better: "lower"},
	{Name: "fleet.sched_calls_per_round", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.self_cpu_share", Unit: "share", Better: "lower"},
	{Name: "fleet.resizes", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.preemptions", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.admit_wait_rounds_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.workers_speedup", Unit: "x", Better: "higher"},
	{Name: "fleet.planners_speedup", Unit: "x", Better: "higher"},
	// metrics
	{Name: "metrics.trace_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "metrics.trace_cost_share", Unit: "share", Better: "lower"},
	{Name: "metrics.trace_write_ms", Unit: "ms", Better: "lower"},
}
