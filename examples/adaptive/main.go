// Example adaptive demonstrates closed-loop adaptive re-planning: a
// workload-shift scenario makes the corpus image-heavier mid-run (the
// data-distribution drift of §2.3 made dynamic), and the re-planning
// controller reacts — it detects the drift, recalibrates the profiler
// from the samples training actually saw, re-runs the §4.3
// orchestration search concurrently with training, trial-scores the
// winner under the runtime cost model, and switches plans at an
// iteration boundary as a costed reconfiguration.
//
// The same run is executed twice, with and without the controller:
// the adaptive run finishes with a lower mean iteration time, and —
// because plans only permute placement and order, never the
// commutative gradient accumulation — bit-identical gradient sums.
package main

import (
	"fmt"
	"log"

	"disttrain/internal/controller"
	"disttrain/internal/experiments"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

func main() {
	spec, corpus, err := experiments.NewSpec(model.MLLM9B(), 4, 32, model.FullTraining)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ahead-of-time plan:")
	fmt.Println(plan)

	// Iterations 2..13 draw from a distribution whose images carry 3x
	// the tokens the profiler was calibrated on.
	sc, err := scenario.Parse("workload-shift:iters=2-13,factor=3")
	if err != nil {
		log.Fatal(err)
	}
	const iters = 14

	mkConfig := func() trainer.Config {
		cfg := trainer.DistTrainConfig(spec, plan, corpus)
		cfg.Scenario = sc
		cfg.GradientDim = 8
		return cfg
	}

	static, err := trainer.Run(mkConfig(), iters)
	if err != nil {
		log.Fatal(err)
	}

	cfg := mkConfig()
	ctrl, err := controller.New(controller.Config{
		Train:     cfg,
		Threshold: 0.3,
		Window:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg.Controller = ctrl
	adaptive, err := trainer.Run(cfg, iters)
	if err != nil {
		log.Fatal(err)
	}

	for _, rep := range ctrl.Reports() {
		if rep.Triggered {
			fmt.Printf("drift detected at iter %d: score %.2f (cost %.2f, spread %.2f)\n",
				rep.Iter, rep.Score, rep.CostDrift, rep.SpreadDrift)
		}
	}
	for _, rp := range adaptive.Replans {
		fmt.Printf("plan switch before iter %d (%.2fs reconfiguration): %s\n",
			rp.AppliedAt, rp.Downtime, rp.Reason)
	}
	fmt.Println("\nre-planned layout:")
	fmt.Println(ctrl.CurrentPlan())

	fmt.Printf("static plan:   mean iter %.3fs, MFU %.1f%%\n", static.MeanIterTime, 100*static.MFU)
	fmt.Printf("adaptive plan: mean iter %.3fs, MFU %.1f%% (%d switches, %.2fs reconfiguration downtime)\n",
		adaptive.MeanIterTime, 100*adaptive.MFU, adaptive.PlanSwitches, adaptive.DowntimeSeconds)

	same := fmt.Sprint(static.GradientSum) == fmt.Sprint(adaptive.GradientSum)
	fmt.Printf("gradient sums identical: %v — re-planning changed placement and order, never the math\n", same)
}
