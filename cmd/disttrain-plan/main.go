// Command disttrain-plan runs the disaggregated model orchestration
// planner (and the paper's baselines) on a training task and prints
// the resulting resource allocations and parallelism strategies.
//
// Example:
//
//	disttrain-plan -model 72b -nodes 162 -batch 1920 -strategy all
//
// The DistTrain planner runs on the best-first plan-search engine
// behind a plan cache. A fleet sweep plans one task per cluster size,
// in order, through the cache — a duplicate size is a cache hit:
//
//	disttrain-plan -model 9b -batch 128 -sweep 4,8,12,24
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"disttrain/internal/experiments"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/prof"
)

var (
	modelName = flag.String("model", "9b", "model preset: 9b, 15b or 72b")
	nodes     = flag.Int("nodes", 12, "cluster size in 8-GPU nodes")
	batch     = flag.Int("batch", 128, "global batch size (samples per iteration)")
	strategy  = flag.String("strategy", "all", "disttrain, megatron, distmm or all")
	freeze    = flag.String("freeze", "full", "full, all-frozen, encoder-only, llm-only or generator-only")
	sweep     = flag.String("sweep", "", "comma-separated node counts to plan in order (overrides -nodes/-strategy)")
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
	// The searches report every candidate to the cache's observer; the
	// summary line counts the ones their bounds pruned.
	var pruned int64
	opts := orchestrator.SearchOptions{OnCandidate: func(_ orchestrator.Candidate, _ *orchestrator.Plan, err error) {
		if errors.Is(err, orchestrator.ErrCandidatePruned) {
			pruned++
		}
	}}
	cache := orchestrator.NewPlanCache(opts)

	if *sweep != "" {
		if err := runSweep(m, fr, *batch, *sweep, cache); err != nil {
			return err
		}
		reportCache(cache, pruned)
		return nil
	}

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
	if *strategy != "all" && !slices.ContainsFunc(strategies, func(p planner) bool { return p.name == *strategy }) {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	spec, _, err := experiments.NewSpec(m, *nodes, *batch, fr)
	if err != nil {
		return err
	}
	fmt.Printf("task: %s on %d GPUs, global batch %d, freeze=%s\n\n",
		m.Name, *nodes*8, *batch, fr.Name)
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
	reportCache(cache, pruned)
	return nil
}

// reportCache summarises the plan cache's work, with the pruned
// candidates its observer counted.
func reportCache(cache *orchestrator.PlanCache, pruned int64) {
	fmt.Printf("plan cache: %d searches, %d candidates pruned\n", cache.Searches(), pruned)
}

// runSweep plans the model at every requested cluster size, in order,
// through the cache: a repeated size is a hit. Prints a comparison
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
	for i, s := range specs {
		fleet := s.Cluster.TotalGPUs()
		plan, err := cache.Plan(context.Background(), s)
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
