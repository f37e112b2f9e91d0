// Producer pool: runs an elastic fleet of three disaggregated
// preprocessing producers, trains against them through a one-tenant
// preprocessing service, kills one producer mid-run via a scenario
// event and brings it back two iterations later — the §5/§8 elasticity
// story end to end.
// The run's results are identical to a single-producer run; only the
// pool metrics (failovers, fetch latency) show the churn.
//
//	go run ./examples/producerpool
package main

import (
	"fmt"
	"log"

	"disttrain/internal/experiments"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
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
	cfg := trainer.DistTrainConfig(spec, plan, corpus)

	// Three in-process producers, each an independent stateless TCP
	// server — one laptop playing the paper's elastic CPU-node fleet.
	pcfg, err := trainer.PreprocessConfigFor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := preprocess.StartFleet(pcfg, 3)
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	fmt.Println("producer fleet:")
	for i, addr := range fleet.Addrs() {
		fmt.Printf("  producer %d on %s\n", i, addr)
	}

	// The consumer side in three calls — service, tenant, source:
	// deterministic (iteration, rank) assignment, health tracking,
	// failover, bounded admission.
	stats := &metrics.PoolStats{}
	svc, err := preprocess.NewService(preprocess.ServiceConfig{
		Addrs: fleet.Addrs(),
		Stats: stats,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	tenant, err := svc.Register(preprocess.TenantConfig{Name: "trainer", DP: pcfg.DPSize})
	if err != nil {
		log.Fatal(err)
	}
	cfg.Source = &trainer.PoolSource{Pool: tenant, Samples: cfg.Corpus}
	cfg.DisaggregatedPreprocess = true

	// Producer 1 dies at iteration 2 and rejoins at iteration 4; the
	// fleet is the run's ProducerControl, so the events act on real TCP
	// servers.
	sc, err := scenario.Parse(
		"producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scenario = sc
	cfg.ProducerControl = fleet

	fmt.Println("\ntraining 6 iterations (producer 1 dies at iter 2, rejoins at iter 4):")
	res, err := trainer.Run(cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range res.Iterations {
		fmt.Printf("  iter %d: %7.3fs  stall %5.1fms  MFU %4.1f%%\n",
			it.Index, it.Breakdown.Total(), it.Breakdown.PreprocessStall*1e3, 100*it.MFU)
	}
	snap := stats.Snapshot()
	fmt.Printf("\npool: %s\n", snap)
	fmt.Println("\nevery batch arrived despite the churn — failovers, not failures.")
}
