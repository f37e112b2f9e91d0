package orchestrator

import (
	"errors"
	"fmt"

	"disttrain/internal/model"
	"disttrain/internal/parallel"
)

// Reentrancy audit: both baseline planners are pure functions of the
// spec — they share no mutable state (each builds its own searchCtx)
// and touch the profiler only through its thread-safe query methods.
// Callers may therefore score baselines concurrently with a DistTrain
// plan search.

// megatronPPTable holds the §7.1 pipeline sizes: "we set the PP size of
// the LLM backbone to 1, 2, and 10 for Llama3-7B, Llama3-13B, and
// Llama3-70B".
var megatronPPTable = map[string]int{
	model.Llama3_7B.Name:  1,
	model.Llama3_13B.Name: 2,
	model.Llama3_70B.Name: 10,
}

// PlanMegatron reproduces the monolithic orchestration of §2.1/§7.1:
// the encoder and generator are extra pipeline stages, every module
// uses the LLM's TP size (8, one full node) and the LLM's DP size, the
// encoder/generator are replicated across their TP group, and data
// preprocessing is co-located with training (the trainer charges its
// cost when it executes a Megatron plan).
func PlanMegatron(s Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc := newSearchCtx(&s)
	tp := s.Cluster.GPUsPerNode
	ppLM, ok := megatronPPTable[s.Model.Backbone.Name]
	if !ok {
		// Fallback for non-preset backbones: the memory floor at DP=1.
		var err error
		ppLM, err = sc.llmMemoryFloor(tp, 1, 0)
		if err != nil {
			return nil, err
		}
	}
	stages := ppLM + 2 // encoder stage + LLM stages + generator stage
	maxDP := sc.n / (tp * stages)
	if maxDP < 1 {
		return nil, fmt.Errorf("orchestrator: megatron needs %d GPUs for one replica, budget %d",
			tp*stages, sc.n)
	}
	dp := largestDPDivisor(s, maxDP)
	if dp == 0 {
		return nil, errors.New("orchestrator: no DP divides the global batch")
	}

	plan := &Plan{
		Strategy: "megatron-lm",
		Modules: [3]ModulePlan{
			{Module: model.Encoder, Config: parallel.Plain(tp, 1, dp)},
			{Module: model.Backbone, Config: parallel.Plain(tp, ppLM, dp)},
			{Module: model.Generator, Config: parallel.Plain(tp, 1, dp)},
		},
	}
	if err := sc.evaluate(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// PlanDistMM is the DistMM* baseline of §7.2: DistTrain's execution
// stack but with resources allocated proportionally to each module's
// compute demand (FLOPs), ignoring the interaction between parallelism
// configuration and per-GPU efficiency that the §4.2 formulation
// captures.
func PlanDistMM(s Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc := newSearchCtx(&s)
	n := sc.n
	tp := s.Cluster.GPUsPerNode
	// DistMM* runs on DistTrain's execution stack (§7.2), so the
	// modality modules use DistTrain's width-1 replication; only the
	// resource split differs.
	modalityWidth := 1
	kern := s.Profiler.Kernel()
	work := kern.Fold(s.Profiler.MeanShape())

	flops := make([]float64, 3)
	var total float64
	for _, mod := range model.Modules {
		fwd, bwd := kern.TrainFLOPs(mod, work)
		flops[mod] = fwd + bwd
		total += fwd + bwd
	}

	// Proportional targets, floored at one group each.
	targets := make([]int, 3)
	for _, mod := range model.Modules {
		targets[mod] = int(float64(n) * flops[mod] / total)
		if targets[mod] < modalityWidth {
			targets[mod] = modalityWidth
		}
	}

	// Backbone: fit DP and PP into its share.
	yTarget := targets[model.Backbone]
	if yTarget < tp {
		yTarget = tp
	}
	dp := largestDPDivisor(s, yTarget/tp)
	if dp == 0 {
		return nil, errors.New("orchestrator: distmm cannot fit one backbone replica")
	}
	ppFloor, err := sc.llmMemoryFloor(tp, dp, 0)
	if err != nil {
		return nil, err
	}
	pp := sc.divisors.snapPPToLayers(yTarget/(tp*dp), ppFloor)
	if pp == 0 {
		return nil, errors.New("orchestrator: distmm cannot satisfy backbone memory floor")
	}

	x := targets[model.Encoder]
	z := targets[model.Generator]
	// FLOPs-proportional allocation ignores batch divisibility; shrink
	// the modality shares if the total overflows the budget.
	for x+tp*dp*pp+z > n && x > modalityWidth {
		x--
	}
	for x+tp*dp*pp+z > n && z > modalityWidth {
		z--
	}

	plan := &Plan{
		Strategy: "distmm*",
		Modules: [3]ModulePlan{
			{Module: model.Encoder, Config: parallel.Plain(modalityWidth, 1, x)},
			{Module: model.Backbone, Config: parallel.Plain(tp, pp, dp)},
			{Module: model.Generator, Config: parallel.Plain(modalityWidth, 1, z)},
		},
	}
	if err := sc.evaluate(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// largestDPDivisor returns the largest DP <= maxDP dividing BS/M, or 0.
func largestDPDivisor(s Spec, maxDP int) int {
	total := s.GlobalBatch / s.Microbatch
	for dp := min(maxDP, total); dp >= 1; dp-- {
		if total%dp == 0 {
			return dp
		}
	}
	return 0
}
