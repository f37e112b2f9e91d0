// Multi-tenant fleet: schedule three concurrent training jobs over one
// shared 8-node cluster under the fair-share policy. Two identical
// tenants share a single plan search through the fingerprint-keyed
// cache; when the short job completes, the survivor's lease grows
// elastically (a costed checkpoint-reconfigure), and a mid-run node
// failure + rejoin exercises the shrink path. The merged per-job
// Chrome trace lands next to the binary.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"disttrain/internal/experiments"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

func main() {
	spec, corpus, err := experiments.NewSpec(model.MLLM9B(), 8, 32, model.FullTraining)
	if err != nil {
		log.Fatal(err)
	}
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)

	// Fleet-scope events ride the same grammar as the trainer's
	// -scenario flag; iter is the fleet scheduling round.
	sc, err := scenario.Parse("node-fail:iter=2,node=0; node-join:iter=4,node=0")
	if err != nil {
		log.Fatal(err)
	}

	res, err := fleet.Run(fleet.Config{
		Cluster: spec.Cluster,
		Jobs: []fleet.JobSpec{
			{Name: "short", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 4},
			{Name: "long", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8},
			{Name: "late", Train: tmpl, Iters: 3, MinNodes: 2, MaxNodes: 4, Arrive: 2},
		},
		Policy:   fleet.FairShare,
		Scenario: sc,
		Trace:    true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet finished in %d rounds; plan cache: %d searches, %d hits\n",
		res.Rounds, res.PlanSearches, res.PlanHits)
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			fmt.Printf("  %-6s failed: %v\n", jr.Name, jr.Err)
			continue
		}
		if jr.Result == nil {
			fmt.Printf("  %-6s never started\n", jr.Name)
			continue
		}
		fmt.Printf("  %-6s rounds %d..%d  iters %d  resizes %d  mean iter %.3fs  MFU %4.1f%%\n",
			jr.Name, jr.Started, jr.Finished, len(jr.Result.Iterations), jr.Resizes,
			jr.Result.MeanIterTime, 100*jr.Result.MFU)
	}

	if err := res.Trace.WriteJSONFile("fleet-timeline.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged timeline: fleet-timeline.json (%d events)\n", res.Trace.Len())
}
