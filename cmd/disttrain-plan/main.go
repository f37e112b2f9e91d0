// Command disttrain-plan runs the disaggregated model orchestration
// planner (and the paper's baselines) on a training task and prints
// the resulting resource allocations and parallelism strategies.
//
// Example:
//
//	disttrain-plan -model 72b -nodes 162 -batch 1920 -strategy all
//
// The DistTrain planner runs on the parallel plan-search engine; tune
// the worker pool with -parallelism (0 = GOMAXPROCS). A fleet sweep
// plans one task per cluster size concurrently over a shared pool:
//
//	disttrain-plan -model 9b -batch 128 -sweep 4,8,12,24
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"disttrain"
	"disttrain/internal/prof"
)

var (
	modelName   = flag.String("model", "9b", "model preset: 9b, 15b or 72b")
	nodes       = flag.Int("nodes", 12, "cluster size in 8-GPU nodes")
	batch       = flag.Int("batch", 128, "global batch size (samples per iteration)")
	strategy    = flag.String("strategy", "all", "disttrain, megatron, distmm or all")
	freeze      = flag.String("freeze", "full", "full, all-frozen, encoder-only, llm-only or generator-only")
	parallelism = flag.Int("parallelism", 0, "plan-search worker count (0 = GOMAXPROCS)")
	sweep       = flag.String("sweep", "", "comma-separated node counts to plan concurrently (overrides -nodes/-strategy)")
	cacheDir    = flag.String("plan-cache-dir", "", "durable plan-cache directory: previously planned tasks load from disk instead of re-searching, and new sizes warm-start from their neighbours")
	planners    = flag.Int("planners", 0, "async planner pool for the sweep (0 = synchronous): sizes are enqueued up front, duplicate tasks coalesce onto one in-flight search, and results publish in sweep order")
)

func main() {
	profile := prof.Register(flag.CommandLine)
	flag.Parse()

	stopProfile, err := profile.Start()
	if err != nil {
		fatal(err)
	}
	err = run()
	if perr := stopProfile(); perr != nil {
		fatal(perr)
	}
	if err != nil {
		fatal(err)
	}
}

// run is the whole command after flag parsing; main brackets it with
// the pprof start/stop pair, so it returns errors instead of exiting.
func run() error {
	m, err := modelByName(*modelName)
	if err != nil {
		return err
	}
	fr, err := freezeByName(*freeze)
	if err != nil {
		return err
	}
	opts := disttrain.SearchOptions{Parallelism: *parallelism}
	var cache *disttrain.PlanCache
	if *cacheDir != "" {
		st, err := disttrain.NewDiskPlanStore(*cacheDir)
		if err != nil {
			return err
		}
		cache = disttrain.NewPersistentPlanCache(opts, st)
	}

	if *planners < 0 {
		return fmt.Errorf("-planners %d invalid (want >= 0)", *planners)
	}
	if *planners > 0 {
		if cache == nil {
			cache = disttrain.NewPlanCache(opts)
		}
		if err := cache.StartPlanners(*planners); err != nil {
			return err
		}
		defer cache.StopPlanners()
	}

	if *sweep != "" {
		if err := runSweep(m, fr, *batch, *sweep, opts, cache, *planners); err != nil {
			return err
		}
		reportCache(cache)
		return nil
	}

	spec, _, err := disttrain.NewSpecFrozen(m, *nodes, *batch, fr)
	if err != nil {
		return err
	}
	fmt.Printf("task: %s on %d GPUs, global batch %d, freeze=%s\n\n",
		m.Name, *nodes*8, *batch, fr.Name)

	type planner struct {
		name string
		fn   func(disttrain.Spec) (*disttrain.Plan, error)
	}
	strategies := []planner{
		{"disttrain", func(s disttrain.Spec) (*disttrain.Plan, error) {
			if cache != nil {
				return cache.Plan(context.Background(), s)
			}
			return disttrain.PlanDistTrainCtx(context.Background(), s, opts)
		}},
		{"megatron", disttrain.PlanMegatron},
		{"distmm", disttrain.PlanDistMM},
	}
	for _, p := range strategies {
		if *strategy != "all" && *strategy != p.name {
			continue
		}
		plan, err := p.fn(spec)
		if err != nil {
			fmt.Printf("%s: infeasible: %v\n\n", p.name, err)
			continue
		}
		fmt.Println(plan)
	}
	reportCache(cache)
	return nil
}

// reportCache summarises the durable cache's work, when one is in use.
func reportCache(cache *disttrain.PlanCache) {
	if cache == nil {
		return
	}
	fmt.Printf("plan cache: %d searches, %d warm hits, %d warm-seeded, %d coalesced, %d candidates pruned\n",
		cache.Searches(), cache.WarmHits(), cache.WarmSeeds(), cache.Coalesced(), cache.Pruned())
}

// runSweep plans the model at every requested cluster size — in one
// PlanMany call over a shared worker pool, or through the durable
// cache when one is configured (sequential, so each size can
// warm-start from the previous one). With -planners the cache's async
// tier takes over: every size is enqueued before any result is
// awaited, duplicates coalesce onto one in-flight search, and plans
// publish in sweep order. Prints a comparison table.
func runSweep(m disttrain.MLLM, fr disttrain.FreezeSpec, batch int, sweep string, opts disttrain.SearchOptions, cache *disttrain.PlanCache, planners int) error {
	var nodeCounts []int
	for _, f := range strings.Split(sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sweep entry %q (want positive node counts)", f)
		}
		nodeCounts = append(nodeCounts, n)
	}
	specs := make([]disttrain.Spec, len(nodeCounts))
	for i, n := range nodeCounts {
		s, _, err := disttrain.NewSpecFrozen(m, n, batch, fr)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
		specs[i] = s
	}
	fmt.Printf("sweep: %s, global batch %d, freeze=%s, %d cluster sizes\n\n", m.Name, batch, fr.Name, len(specs))
	fmt.Printf("%6s %6s %6s %10s %7s\n", "nodes", "gpus", "used", "iter(s)", "mfu%")
	var results []disttrain.PlanResult
	if planners > 0 {
		tickets := make([]*disttrain.PlanTicket, len(specs))
		for i, s := range specs {
			tickets[i] = cache.PlanAsync(context.Background(), s)
		}
		results = make([]disttrain.PlanResult, len(specs))
		for i, tk := range tickets {
			results[i].Plan, results[i].Err = tk.Wait(context.Background())
			tk.Publish()
		}
	} else if cache != nil {
		results = make([]disttrain.PlanResult, len(specs))
		for i, s := range specs {
			results[i].Plan, results[i].Err = cache.Plan(context.Background(), s)
		}
	} else {
		results = disttrain.PlanMany(context.Background(), specs, opts)
	}
	for i, r := range results {
		fleet := specs[i].Cluster.TotalGPUs()
		if r.Err != nil {
			fmt.Printf("%6d %6d      - infeasible: %v\n", nodeCounts[i], fleet, r.Err)
			continue
		}
		fmt.Printf("%6d %6d %6d %10.3f %7.1f\n",
			nodeCounts[i], fleet, r.Plan.TotalGPUs(), r.Plan.IterTime, 100*r.Plan.EstMFU)
	}
	return nil
}

func modelByName(name string) (disttrain.MLLM, error) {
	switch strings.ToLower(name) {
	case "9b", "mllm-9b":
		return disttrain.MLLM9B(), nil
	case "15b", "mllm-15b":
		return disttrain.MLLM15B(), nil
	case "72b", "mllm-72b":
		return disttrain.MLLM72B(), nil
	}
	return disttrain.MLLM{}, fmt.Errorf("unknown model %q (want 9b, 15b or 72b)", name)
}

func freezeByName(name string) (disttrain.FreezeSpec, error) {
	for _, f := range []disttrain.FreezeSpec{
		disttrain.FullTraining, disttrain.AllFrozen, disttrain.EncoderOnly,
		disttrain.LLMOnly, disttrain.GeneratorOnly,
	} {
		if f.Name == name {
			return f, nil
		}
	}
	return disttrain.FreezeSpec{}, fmt.Errorf("unknown freeze setting %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-plan:", err)
	os.Exit(1)
}
