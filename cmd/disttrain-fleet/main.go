// Command disttrain-fleet runs a multi-tenant fleet: many concurrent
// training jobs scheduled over one shared cluster, each holding an
// explicit, elastically resizable GPU lease. Admission order, lease
// sizing and placement are the -policy scheduler's decisions (fifo,
// fair-share, or priority with preemption, aging and packed
// placement), and all plan searches go through one fingerprint-keyed
// cache — identical jobs pay for a single §4.3 search. The fleet-scope
// scenario grammar injects arrivals, departures, node failures/rejoins,
// priority storms and herd bursts; -trace writes the merged per-job
// Chrome-trace timeline (atomically: temp file + rename). Admission is
// one synchronous step: a granted lease is planned through the cache
// and the job starts on it the round it is granted.
//
// Examples:
//
//	disttrain-fleet -nodes 8 -jobs 2 -job-nodes 2-4 -job-iters 4 -policy fair-share
//	disttrain-fleet -nodes 8 -jobs 2 -arrive 0,2 \
//	    -scenario 'node-fail:iter=3,node=0; node-join:iter=5,node=0'
//	disttrain-fleet -nodes 8 -jobs 2 -policy priority -priority low,high -arrive 0,2
//	disttrain-fleet -nodes 8 -jobs 2 -policy priority \
//	    -scenario 'preempt-storm:iter=2,job=1,class=high,count=2'
//	disttrain-fleet -nodes 16 -jobs 4 -job-nodes 4-4 -trace fleet.json
//	disttrain-fleet -nodes 8 -jobs 1 -job-nodes 2-2 \
//	    -scenario 'herd:iter=0,job=0,count=3'
//	disttrain-fleet -nodes 8 -jobs 3 -producers 2 \
//	    -scenario 'producer-fail:iter=1,producer=0; producer-join:iter=4,producer=0'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"disttrain/internal/experiments"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/prof"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

func main() {
	var (
		modelName = flag.String("model", "9b", "model preset: 9b, 15b or 72b")
		nodes     = flag.Int("nodes", 8, "shared cluster size in 8-GPU nodes")
		jobs      = flag.Int("jobs", 2, "number of identical jobs to submit")
		jobIters  = flag.Int("job-iters", 3, "iterations per job")
		batch     = flag.Int("batch", 32, "global batch size per job")
		jobNodes  = flag.String("job-nodes", "", "per-job lease range min-max in nodes (default 1-<nodes>)")
		arrive    = flag.String("arrive", "", "comma-separated arrival rounds, one per job (default all 0)")
		policy    = flag.String("policy", "fair-share", "scheduling policy: "+strings.Join(fleet.SchedulerNames(), ", "))
		priority  = flag.String("priority", "", "comma-separated priority classes (low, normal, high), one per job (default all normal)")
		scenSpec  = flag.String("scenario", "", "fleet-scope scenario, e.g. 'job-arrive:iter=2,job=0; node-fail:iter=3,node=1; priority-arrive:iter=4,job=0,class=high; preempt-storm:iter=5,job=1,count=2'")
		traceFile = flag.String("trace", "", "write the merged fleet timeline (Chrome trace format) to this file")
		producers = flag.Int("producers", 0, "shared preprocessing producers (0 = no shared tier); jobs fetch batches over TCP, each through its own cache partition")
	)
	profile := prof.Register(flag.CommandLine)
	flag.Parse()
	if *jobs < 1 {
		fatal(fmt.Errorf("-jobs must be at least 1"))
	}

	m, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	spec, corpus, err := experiments.NewSpec(m, *nodes, *batch, model.FullTraining)
	if err != nil {
		fatal(err)
	}
	pol, err := fleet.LookupScheduler(*policy)
	if err != nil {
		fatal(err)
	}
	minN, maxN := 1, *nodes
	if *jobNodes != "" {
		lo, hi, ok := strings.Cut(*jobNodes, "-")
		if ok {
			minN, err = strconv.Atoi(strings.TrimSpace(lo))
			if err == nil {
				maxN, err = strconv.Atoi(strings.TrimSpace(hi))
			}
		}
		if !ok || err != nil {
			fatal(fmt.Errorf("-job-nodes wants min-max, got %q", *jobNodes))
		}
	}
	arrivals := make([]int, *jobs)
	if *arrive != "" {
		parts := strings.Split(*arrive, ",")
		if len(parts) != *jobs {
			fatal(fmt.Errorf("-arrive lists %d rounds for %d jobs", len(parts), *jobs))
		}
		for i, p := range parts {
			if arrivals[i], err = strconv.Atoi(strings.TrimSpace(p)); err != nil {
				fatal(fmt.Errorf("bad arrival %q: %w", p, err))
			}
		}
	}
	classes := make([]fleet.Class, *jobs)
	if *priority != "" {
		parts := strings.Split(*priority, ",")
		if len(parts) != *jobs {
			fatal(fmt.Errorf("-priority lists %d classes for %d jobs", len(parts), *jobs))
		}
		for i, p := range parts {
			if classes[i], err = fleet.ParseClass(strings.TrimSpace(p)); err != nil {
				fatal(err)
			}
		}
	}

	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	cfg := fleet.Config{
		Cluster: spec.Cluster,
		Policy:  pol,
		Trace:   *traceFile != "",
	}
	for i := 0; i < *jobs; i++ {
		cfg.Jobs = append(cfg.Jobs, fleet.JobSpec{
			Name: fmt.Sprintf("job%d", i), Train: tmpl, Iters: *jobIters,
			MinNodes: minN, MaxNodes: maxN, Arrive: arrivals[i],
			Priority: classes[i],
		})
	}
	if *producers > 0 {
		cfg.Preprocess = fleet.PreprocessFor(tmpl, *producers)
	}
	if *scenSpec != "" {
		sc, err := scenario.Parse(*scenSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Scenario = sc
	}

	stopProfile, err := profile.Start()
	if err != nil {
		fatal(err)
	}
	res, err := fleet.Run(cfg)
	if perr := stopProfile(); perr != nil {
		fatal(perr)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("fleet: %d nodes, %s policy, %d rounds, %d tenants\n",
		*nodes, pol.Name(), res.Rounds, len(res.Jobs))
	fmt.Printf("plan cache: %d searches, %d hits\n", res.PlanSearches, res.PlanHits)
	if res.Preprocess != nil {
		fmt.Printf("shared preprocessing: %s\n", res.Preprocess)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			fmt.Printf("  %-10s FAILED: %v\n", jr.Name, jr.Err)
			continue
		}
		if jr.Result == nil {
			// Departed (or otherwise retired) before it was ever placed.
			fmt.Printf("  %-10s never started (departed %v)\n", jr.Name, jr.Departed)
			continue
		}
		r := jr.Result
		fmt.Printf("  %-10s rounds %d..%d  %-10s iters %d  resizes %d  mean iter %.3fs  MFU %4.1f%%",
			jr.Name, jr.Started, jr.Finished, jr.Strategy, len(r.Iterations), jr.Resizes,
			r.MeanIterTime, 100*r.MFU)
		if jr.Priority != "" && jr.Priority != "normal" {
			fmt.Printf("  class %s", jr.Priority)
		}
		if jr.Preemptions > 0 {
			fmt.Printf("  preempted %dx", jr.Preemptions)
		}
		if jr.Departed {
			fmt.Printf("  (departed)")
		}
		if r.DowntimeSeconds > 0 {
			fmt.Printf("  downtime %.2fs", r.DowntimeSeconds)
		}
		if jr.Pool != nil {
			fmt.Printf("  pool fetches %d failovers %d", jr.Pool.Fetches, jr.Pool.Failovers)
		}
		fmt.Println()
	}

	if *traceFile != "" {
		if err := res.Trace.WriteJSONFile(*traceFile); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline: %s (%d events; open in chrome://tracing or Perfetto)\n", *traceFile, res.Trace.Len())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-fleet:", err)
	os.Exit(1)
}
