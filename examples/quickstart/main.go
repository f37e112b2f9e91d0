// Quickstart: plan and simulate multimodal LLM training — build a
// calibrated spec, plan it with DistTrain and the Megatron-LM baseline,
// and train both.
//
//	go run ./examples/quickstart
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
	// A 96-GPU cluster (the paper's §7.2 ablation scale) training the
	// 9B multimodal model: ViT-Huge encoder + Llama3-7B backbone +
	// Stable-Diffusion generator.
	spec, corpus, err := experiments.NewSpec(model.MLLM9B(), 12, 128, model.FullTraining)
	if err != nil {
		log.Fatal(err)
	}

	// Disaggregated model orchestration (§4): each module gets its own
	// GPU allocation and parallelism configuration.
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	// Compare with the monolithic Megatron-LM baseline.
	baseline, err := orchestrator.PlanMegatron(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(baseline)

	// Train five iterations with the full DistTrain runtime: data
	// reordering, disaggregated preprocessing, asynchronous sends.
	res, err := trainer.Run(trainer.DistTrainConfig(spec, plan, corpus), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DistTrain:   MFU %.1f%%  throughput %.2fM tokens/s  mean iter %.3fs\n",
		100*res.MFU, res.TokensPerSec/1e6, res.MeanIterTime)

	resBase, err := trainer.Run(trainer.MegatronConfig(spec, baseline, corpus), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Megatron-LM: MFU %.1f%%  throughput %.2fM tokens/s  mean iter %.3fs\n",
		100*resBase.MFU, resBase.TokensPerSec/1e6, resBase.MeanIterTime)
	fmt.Printf("\nspeedup: %.2fx throughput, %.2fx MFU\n",
		res.TokensPerSec/resBase.TokensPerSec, res.MFU/resBase.MFU)
}
