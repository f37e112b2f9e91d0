// Orchestration: the §7.2 ablation — DistTrain's adaptive model
// orchestration against Megatron-LM's monolithic strategy and
// DistMM*'s FLOPs-proportional allocation, on 96 GPUs for all three
// model sizes.
//
//	go run ./examples/orchestration
package main

import (
	"fmt"
	"log"

	"disttrain/internal/data"
	"disttrain/internal/experiments"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

func main() {
	batches := map[string]int{"MLLM-9B": 128, "MLLM-15B": 64, "MLLM-72B": 40}
	for _, m := range model.Presets() {
		spec, corpus, err := experiments.NewSpec(m, 12, batches[m.Name], model.FullTraining)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==================== %s (96 GPUs, GBS %d) ====================\n",
			m.Name, batches[m.Name])

		type strategy struct {
			plan func(orchestrator.Spec) (*orchestrator.Plan, error)
			cfg  func(orchestrator.Spec, *orchestrator.Plan, *data.Corpus) trainer.Config
		}
		for _, s := range []strategy{
			{orchestrator.PlanMegatron, trainer.MegatronConfig},
			{orchestrator.PlanDistMM, trainer.DistTrainConfig}, // DistMM* runs on DistTrain's stack (§7.2)
			{orchestrator.PlanDistTrain, trainer.DistTrainConfig},
		} {
			plan, err := s.plan(spec)
			if err != nil {
				fmt.Printf("infeasible: %v\n", err)
				continue
			}
			fmt.Println(plan)
			res, err := trainer.Run(s.cfg(spec, plan, corpus), 3)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  -> measured: MFU %.1f%%, %.2fM tokens/s, mean iter %.3fs\n\n",
				100*res.MFU, res.TokensPerSec/1e6, res.MeanIterTime)
		}
	}
}
