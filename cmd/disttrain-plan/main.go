// Command disttrain-plan runs the disaggregated model orchestration
// planner (and the paper's baselines) on a training task and prints
// the resulting resource allocations and parallelism strategies.
//
// Example:
//
//	disttrain-plan -model 72b -nodes 162 -batch 1920 -strategy all
//
// The DistTrain planner runs on the parallel plan-search engine behind
// a plan cache; tune the worker pool with -parallelism (0 =
// GOMAXPROCS). A fleet sweep enqueues one task per cluster size onto
// the cache's planner pool — duplicate sizes coalesce onto one search,
// the rest share batched waves over the pool:
//
//	disttrain-plan -model 9b -batch 128 -sweep 4,8,12,24
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"disttrain/internal/experiments"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/prof"
	"disttrain/internal/store"
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
	m, err := model.ByName(*modelName)
	if err != nil {
		return err
	}
	fr, err := model.FreezeByName(*freeze)
	if err != nil {
		return err
	}
	opts := orchestrator.SearchOptions{Parallelism: *parallelism}
	cache := orchestrator.NewPlanCache(opts)
	var disk *store.Disk
	if *cacheDir != "" {
		if disk, err = store.OpenDisk(*cacheDir); err != nil {
			return err
		}
		cache = orchestrator.NewPersistentPlanCache(opts, disk)
	}

	if *sweep != "" {
		if err := runSweep(m, fr, *batch, *sweep, cache); err != nil {
			return err
		}
		reportCache(cache, disk)
		return nil
	}

	spec, _, err := experiments.NewSpec(m, *nodes, *batch, fr)
	if err != nil {
		return err
	}
	fmt.Printf("task: %s on %d GPUs, global batch %d, freeze=%s\n\n",
		m.Name, *nodes*8, *batch, fr.Name)

	type planner struct {
		name string
		fn   func(orchestrator.Spec) (*orchestrator.Plan, error)
	}
	strategies := []planner{
		{"disttrain", func(s orchestrator.Spec) (*orchestrator.Plan, error) {
			return cache.Plan(context.Background(), s)
		}},
		{"megatron", orchestrator.PlanMegatron},
		{"distmm", orchestrator.PlanDistMM},
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
	reportCache(cache, disk)
	return nil
}

// reportCache summarises the plan cache's work and, when it persists
// to disk (non-nil disk), the corrupt entries it read as misses.
func reportCache(cache *orchestrator.PlanCache, disk *store.Disk) {
	fmt.Printf("plan cache: %d searches, %d warm hits, %d warm-seeded, %d coalesced, %d candidates pruned",
		cache.Searches(), cache.WarmHits(), cache.WarmSeeds(), cache.Coalesced(), cache.Pruned())
	if disk != nil {
		fmt.Printf(", %d corrupt entries skipped", disk.CorruptSkips())
	}
	fmt.Println()
}

// runSweep plans the model at every requested cluster size through
// the cache's planner pool (-parallelism workers): every size is
// enqueued before any result is awaited, duplicates coalesce onto one
// in-flight search, the rest share batched waves, and sizes an earlier
// run left in the durable cache load from disk. Prints a comparison
// table.
func runSweep(m model.MLLM, fr model.FreezeSpec, batch int, sweep string, cache *orchestrator.PlanCache) error {
	var nodeCounts []int
	for _, f := range strings.Split(sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sweep entry %q (want positive node counts)", f)
		}
		nodeCounts = append(nodeCounts, n)
	}
	specs := make([]orchestrator.Spec, len(nodeCounts))
	for i, n := range nodeCounts {
		s, _, err := experiments.NewSpec(m, n, batch, fr)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
		specs[i] = s
	}
	fmt.Printf("sweep: %s, global batch %d, freeze=%s, %d cluster sizes\n\n", m.Name, batch, fr.Name, len(specs))
	fmt.Printf("%6s %6s %6s %10s %7s\n", "nodes", "gpus", "used", "iter(s)", "mfu%")
	workers := *parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := cache.StartPlanners(workers); err != nil {
		return err
	}
	defer cache.StopPlanners()
	tickets := make([]*orchestrator.PlanTicket, len(specs))
	for i, s := range specs {
		tickets[i] = cache.PlanAsync(context.Background(), s)
	}
	for i, tk := range tickets {
		fleet := specs[i].Cluster.TotalGPUs()
		plan, err := tk.Wait(context.Background())
		if err != nil {
			fmt.Printf("%6d %6d      - infeasible: %v\n", nodeCounts[i], fleet, err)
			continue
		}
		fmt.Printf("%6d %6d %6d %10.3f %7.1f\n",
			nodeCounts[i], fleet, plan.TotalGPUs(), plan.IterTime, 100*plan.EstMFU)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-plan:", err)
	os.Exit(1)
}
