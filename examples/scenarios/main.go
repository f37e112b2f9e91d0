// Scenario injection: run the concurrent training runtime through a
// turbulent production day — a straggling GPU, a congested fabric,
// degraded preprocessing nodes, and a node failure that forces a
// checkpoint-restore recovery — and capture the whole timeline as a
// Chrome trace.
//
//	go run ./examples/scenarios
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"disttrain/internal/experiments"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

func main() {
	spec, corpus, err := experiments.NewSpec(model.MLLM9B(), 4, 16, model.FullTraining)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		log.Fatal(err)
	}

	// The scenario grammar is the CLI's -scenario flag: iteration
	// windows are inclusive; the failure pays 20s of detection/restart
	// before restoring the latest checkpoint.
	sc, err := scenario.Parse(
		"straggler:iters=1-2,rank=0,factor=3;" +
			"congestion:iters=3-4,factor=5;" +
			"preprocess:iters=3-4,factor=8;" +
			"failure:iter=6,downtime=20")
	if err != nil {
		log.Fatal(err)
	}

	trace := metrics.NewTrace()
	cfg := trainer.DistTrainConfig(spec, plan, corpus)
	cfg.Scenario = sc
	cfg.CheckpointEvery = 2 // the failure recovers from these
	cfg.Trace = trace

	res, err := trainer.Run(cfg, 8)
	if err != nil {
		log.Fatal(err)
	}

	for _, it := range res.Iterations {
		mark := "  "
		if it.Perturbed {
			mark = " !"
		}
		fmt.Printf("iter %2d%s %7.3fs  [%s]\n", it.Index, mark, it.Breakdown.Total(), it.Breakdown)
	}
	for _, rec := range res.Recoveries {
		fmt.Printf("\nnode failure at iteration %d: restored the latest checkpoint, resumed from %d, %.1fs downtime\n",
			rec.FailedAt, rec.ResumedFrom, rec.Downtime)
	}
	fmt.Printf("\n%d failures survived, %d iterations re-executed, %.1fs total downtime\n",
		res.Failures, res.ReExecutedIterations, res.DowntimeSeconds)
	fmt.Printf("effective throughput %.2fM tokens/s at MFU %.1f%% (useful work over wall-clock)\n",
		res.TokensPerSec/1e6, 100*res.MFU)

	out := filepath.Join(os.TempDir(), "disttrain-scenarios-trace.json")
	// Atomic write (temp file + rename): never leaves a truncated
	// timeline behind.
	if err := trace.WriteJSONFile(out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("timeline: %s (%d events; open in chrome://tracing or Perfetto)\n", out, trace.Len())
}
