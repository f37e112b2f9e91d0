package main

import (
	"context"
	"fmt"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/profiler"
	"disttrain/internal/reorder"
	"disttrain/internal/solve"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// Layer replay: after the traced ops, the same generated inputs are
// pushed through each lower layer's public functions on their own, so
// the ledger can say what a layer costs when nothing above it runs.
// Replays run with tracing off and are not part of any op.

// ledger collects per-layer metric values by name.
type ledger map[string]float64

// secondsOf times one call.
func secondsOf(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// packedLease is the first n nodes of a cluster.
func packedLease(n int) cluster.Lease {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return cluster.NewLease(nodes...)
}

// jobTimes is what one replayed training job cost the host.
type jobTimes struct {
	build  float64 // trainer.New + Runtime.NewJob, seconds
	steps  float64 // all Job.Step calls, seconds
	resize float64 // the Job.Resize call, seconds (0 without one)
	iters  int
}

// runJob replays one tenant the way the fleet drives it: trainer.New
// on a lease, Runtime.NewJob, Job.Step to completion, Job.Finish. With
// alt set the job is resized onto alt's lease and plan halfway.
func runJob(cfg trainer.Config, iters int, altLease *cluster.Lease, altPlan *orchestrator.Plan) (jobTimes, *trainer.Result, error) {
	var jt jobTimes
	var rt *trainer.Runtime
	var job *trainer.Job
	var err error
	jt.build = secondsOf(func() {
		if rt, err = trainer.New(cfg); err == nil {
			job, err = rt.NewJob(iters)
		}
	})
	if err != nil {
		return jt, nil, err
	}
	defer rt.Close()
	for !job.Done() {
		if altLease != nil && job.Iteration() == iters/2 && jt.resize == 0 {
			jt.resize = secondsOf(func() { err = job.Resize(*altLease, altPlan, "replay") })
			if err != nil {
				return jt, nil, err
			}
		}
		jt.steps += secondsOf(func() { err = job.Step() })
		if err != nil {
			return jt, nil, err
		}
		jt.iters++
	}
	return jt, job.Finish(), nil
}

// replayTrainer measures the trainer layer on its own for one job
// geometry: building a runtime, stepping it, resizing it from `nodes`
// to `alt` nodes, at rank-worker pools of 1 and `concurrency`.
func replayTrainer(l ledger, base orchestrator.Spec, corpus *data.Corpus, nodes, alt, iters int, shaped bool) error {
	cache := orchestrator.NewPlanCache(orchestrator.SearchOptions{Parallelism: concurrency})
	plan, err := cache.Plan(context.Background(), scopeSpec(base, nodes, shaped))
	if err != nil {
		return err
	}
	altPlan, err := cache.Plan(context.Background(), scopeSpec(base, alt, shaped))
	if err != nil {
		return err
	}
	lease, altLease := packedLease(nodes), packedLease(alt)
	const jobs = 32
	var at [2]jobTimes // rank workers 1, concurrency
	var simIter, simSpread, simN float64
	for w, workers := range []int{1, concurrency} {
		for k := 0; k < jobs; k++ {
			cfg := trainer.DistTrainConfig(base, plan, corpus)
			cfg.Parallelism = workers
			cfg.Lease = &lease
			cfg.PlacementPricing = shaped
			jt, res, err := runJob(cfg, iters, &altLease, altPlan)
			if err != nil {
				return err
			}
			at[w].build += jt.build
			at[w].steps += jt.steps
			at[w].resize += jt.resize
			at[w].iters += jt.iters
			if w == 1 && k == 0 {
				simIter = res.MeanIterTime
				for _, it := range res.Iterations {
					simSpread += it.StragglerSpread
					simN++
				}
			}
		}
	}
	two := at[1]
	l["trainer.new_us"] = two.build / jobs * 1e6
	l["trainer.iter_us"] = two.steps / float64(two.iters) * 1e6
	l["trainer.resize_us"] = two.resize / jobs * 1e6
	l["trainer.parallelism_speedup"] = at[0].steps / two.steps
	l["trainer.sim_iter_s"] = simIter
	l["trainer.sim_straggler_spread"] = simSpread / simN
	return nil
}

// stageTimes prices one microbatch (one sample at M = 1) per pipeline
// stage from the profiler's public cost functions and the plan's
// allocation, the way the trainer builds its pipeline work: encoder
// stage, PP backbone stages, generator stage.
func stageTimes(spec orchestrator.Spec, plan *orchestrator.Plan, shape model.SampleShape) (fwd, bwd []float64) {
	p := spec.Profiler
	lm := plan.Modules[model.Backbone]
	dp := float64(lm.Config.DP)
	stages := lm.Config.PP + 2
	fwd, bwd = make([]float64, stages), make([]float64, stages)
	edge := func(mod model.Module, stage int) {
		mp := plan.Modules[mod]
		w := mp.Config.ModelParallelWidth()
		scale := float64(w) * dp / float64(mp.GPUs())
		f, t := p.SampleForward(mod, w, shape), p.SampleTrain(mod, w, shape)
		fwd[stage], bwd[stage] = f*scale, (t-f)*scale
	}
	edge(model.Encoder, 0)
	edge(model.Generator, stages-1)
	w := lm.Config.ModelParallelWidth()
	f, t := p.SampleForward(model.Backbone, w, shape), p.SampleTrain(model.Backbone, w, shape)
	for s := 1; s < stages-1; s++ {
		fwd[s], bwd[s] = f/float64(lm.Config.PP), (t-f)/float64(lm.Config.PP)
	}
	return fwd, bwd
}

// replayData measures data, profiler, reorder and pipeline on the
// batches one job trains on: materialising each global batch from a
// cold corpus, pricing its samples, Algorithm 1 across DP ranks,
// Algorithm 2 and the 1F1B simulation within each rank.
func replayData(l ledger, spec orchestrator.Spec, plan *orchestrator.Plan, corpusSpec data.Spec, iters int) error {
	dp := plan.Modules[model.Backbone].Config.DP
	bs := spec.GlobalBatch
	var part reorder.Partitioner
	var batchS, priceS, intraS, interS, simS float64
	var priced, ranks int
	var imbalance, bubble float64
	for iter := 0; iter < iters; iter++ {
		corpus, err := data.NewCorpus(corpusSpec) // cold: the sample memo is per corpus
		if err != nil {
			return err
		}
		var batch []data.Sample
		batchS += secondsOf(func() { batch = corpus.GlobalBatch(int64(iter), bs) })
		shapes := make([]model.SampleShape, len(batch))
		costs := make([]float64, len(batch))
		for i, s := range batch {
			shapes[i] = s.Shape()
		}
		priceS += secondsOf(func() {
			for i := range batch {
				costs[i] = spec.Profiler.SampleTrain(model.Encoder, 1, shapes[i]) +
					spec.Profiler.SampleTrain(model.Generator, 1, shapes[i])
			}
		})
		priced += 2 * len(batch)
		var groups [][]int
		intraS += secondsOf(func() {
			if groups, err = part.Partition(costs, dp); err == nil {
				groups = part.Rebalance(groups, bs/dp, costs)
			}
		})
		if err != nil {
			return err
		}
		maxLoad, total := 0.0, 0.0
		for _, g := range groups {
			load := 0.0
			for _, i := range g {
				load += costs[i]
			}
			total += load
			if load > maxLoad {
				maxLoad = load
			}
		}
		imbalance += maxLoad / (total / float64(dp))
		for _, g := range groups {
			mbs := make([]reorder.Microbatch, len(g))
			for j, i := range g {
				f, b := stageTimes(spec, plan, shapes[i])
				mbs[j] = reorder.Microbatch{Index: j, Fwd: f, Bwd: b}
			}
			interS += secondsOf(func() { mbs, err = reorder.InterReorder(mbs, nil) })
			if err != nil {
				return err
			}
			stages := len(mbs[0].Fwd)
			work := pipeline.Work{Fwd: make([][]float64, stages), Bwd: make([][]float64, stages)}
			for s := 0; s < stages; s++ {
				for _, mb := range mbs {
					work.Fwd[s] = append(work.Fwd[s], mb.Fwd[s])
					work.Bwd[s] = append(work.Bwd[s], mb.Bwd[s])
				}
			}
			var res *pipeline.Result
			simS += secondsOf(func() { res, err = pipeline.Simulate(pipeline.OneFOneB, work) })
			if err != nil {
				return err
			}
			bubble += res.MeanBubbleFraction()
			ranks++
		}
	}
	n := float64(iters)
	l["data.global_batch_us"] = batchS / n * 1e6
	l["profiler.sample_cost_ns"] = priceS / float64(priced) * 1e9
	l["reorder.intra_us"] = intraS / n * 1e6
	l["reorder.load_imbalance"] = imbalance / n
	l["reorder.inter_us"] = interS / float64(ranks) * 1e6
	l["pipeline.simulate_us"] = simS / float64(ranks) * 1e6
	l["pipeline.bubble_share"] = bubble / float64(ranks)
	return nil
}

// replayCalibrate times one profiler calibration and a 3-module
// water-fill over the profiler's own per-module costs.
func replayCalibrate(l ledger, opts profiler.Options) error {
	var p *profiler.Profiler
	var err error
	l["profiler.calibrate_ms"] = secondsOf(func() { p, err = calibrate(opts) }) * 1e3
	if err != nil {
		return err
	}
	prob := solve.WaterFillProblem{Lower: []float64{1, 8, 1}, Budget: float64(opts.Cluster.TotalGPUs())}
	for _, mod := range model.Modules {
		prob.Weights = append(prob.Weights, p.CTrain(mod, 1))
	}
	const calls = 2000
	l["solve.waterfill_us"] = secondsOf(func() {
		for i := 0; i < calls && err == nil; i++ {
			_, _, err = prob.Solve()
		}
	}) / calls * 1e6
	return err
}

// specPair is one plan request and the N±1-node neighbour that a
// warm-seeded search follows it with.
type specPair struct{ spec, neighbour orchestrator.Spec }

// plannerReplay is what replayPlanner measured.
type plannerReplay struct {
	cold, seeded, warm, mem []float64 // seconds per request
	cand                    candStats
}

// replayPlanner pushes specs through orchestrator.PlanCache.Plan the
// four ways a plan request can be served: a cold search, a search
// warm-seeded by the N±1 incumbent, a durable hit on a new cache over
// the same (in-memory) store, and an in-memory hit.
func replayPlanner(pairs []specPair) (*plannerReplay, error) {
	r := &plannerReplay{}
	st := store.NewMem()
	opts := orchestrator.SearchOptions{Parallelism: concurrency, OnCandidate: r.cand.observe}
	timed := func(c *orchestrator.PlanCache, sp orchestrator.Spec, into *[]float64) error {
		var err error
		*into = append(*into, secondsOf(func() { _, err = c.Plan(context.Background(), sp) }))
		return err
	}
	c1 := orchestrator.NewPersistentPlanCache(opts, st)
	for _, p := range pairs {
		if err := timed(c1, p.spec, &r.cold); err != nil {
			return nil, err
		}
	}
	for _, p := range pairs {
		if err := timed(c1, p.neighbour, &r.seeded); err != nil {
			return nil, err
		}
	}
	if got, want := c1.WarmSeeds(), int64(len(pairs)); got != want {
		return nil, fmt.Errorf("planner replay: %d warm seeds, want %d", got, want)
	}
	c2 := orchestrator.NewPersistentPlanCache(opts, st)
	for _, into := range []*[]float64{&r.warm, &r.mem} {
		for _, p := range pairs {
			if err := timed(c2, p.spec, into); err != nil {
				return nil, err
			}
			if err := timed(c2, p.neighbour, into); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// fill writes the planner replay's timings into the ledger.
func (r *plannerReplay) fill(l ledger) {
	l["orchestrator.cold_ms_p50"] = median(r.cold) * 1e3
	l["orchestrator.seeded_ms_p50"] = median(r.seeded) * 1e3
	l["orchestrator.warm_hit_us_p50"] = median(r.warm) * 1e6
	l["orchestrator.mem_hit_us_p50"] = median(r.mem) * 1e6
}

// fillCandidates writes the OnCandidate counts of `searches` searches
// that took `seconds` in all.
func fillCandidates(l ledger, c *candStats, searches int64, seconds float64) {
	if total := c.total(); total > 0 && searches > 0 {
		l["orchestrator.candidates_per_search"] = float64(total) / float64(searches)
		l["orchestrator.pruned_share"] = float64(c.pruned.Load()) / float64(total)
		l["orchestrator.candidate_us"] = seconds / float64(total) * 1e6
	}
}

// searchSpeedup is the wall time of cold searches over specs with one
// search worker, divided by the time with `concurrency` workers.
func searchSpeedup(specs []orchestrator.Spec) (float64, error) {
	var at [2]float64
	for w, workers := range []int{1, concurrency} {
		for _, sp := range specs {
			c := orchestrator.NewPlanCache(orchestrator.SearchOptions{Parallelism: workers})
			var err error
			at[w] += secondsOf(func() { _, err = c.Plan(context.Background(), sp) })
			if err != nil {
				return 0, err
			}
		}
	}
	return at[0] / at[1], nil
}
