// Frozen: the §7.3 case study — multimodal LLM training with frozen
// modules (projector-only, encoder-only, LLM-only, generator-only),
// showing how DistTrain re-orchestrates resources per setting while
// Megatron-LM's monolithic allocation cannot adapt.
//
//	go run ./examples/frozen
package main

import (
	"fmt"
	"log"

	"disttrain/internal/experiments"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

func main() {
	m := model.MLLM9B()
	settings := []model.FreezeSpec{
		model.AllFrozen,
		model.EncoderOnly,
		model.LLMOnly,
		model.GeneratorOnly,
	}
	fmt.Printf("%-16s %-26s %-13s %-13s %s\n",
		"setting", "DistTrain GPUs (E/B/G)", "DistTrain MFU", "Megatron MFU", "ratio")
	for _, freeze := range settings {
		spec, corpus, err := experiments.NewSpec(m, 12, 128, freeze)
		if err != nil {
			log.Fatal(err)
		}
		dtPlan, err := orchestrator.PlanDistTrain(spec)
		if err != nil {
			log.Fatal(err)
		}
		mgPlan, err := orchestrator.PlanMegatron(spec)
		if err != nil {
			log.Fatal(err)
		}
		dt, err := trainer.Run(trainer.DistTrainConfig(spec, dtPlan, corpus), 3)
		if err != nil {
			log.Fatal(err)
		}
		mg, err := trainer.Run(trainer.MegatronConfig(spec, mgPlan, corpus), 3)
		if err != nil {
			log.Fatal(err)
		}
		alloc := fmt.Sprintf("%d / %d / %d",
			dtPlan.Modules[0].GPUs(), dtPlan.Modules[1].GPUs(), dtPlan.Modules[2].GPUs())
		fmt.Printf("%-16s %-26s %-13s %-13s %.2fx\n",
			freeze.Name, alloc,
			fmt.Sprintf("%.1f%%", 100*dt.MFU),
			fmt.Sprintf("%.1f%%", 100*mg.MFU),
			dt.MFU/mg.MFU)
	}
	fmt.Println("\nDistTrain shifts GPUs toward whichever module still trains;")
	fmt.Println("the monolithic baseline keeps its static allocation (Figures 18-19).")
}
