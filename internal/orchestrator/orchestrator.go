// Package orchestrator implements DistTrain's disaggregated model
// orchestration (§4): the formulation of training time per iteration
// (Eq. 1: warm-up, Eq. 2: steady phase), the resource and GPU-memory
// constraints, and the adaptive algorithm of §4.3 that enumerates the
// finite (TP, DP) strategy set and solves each simplified convex
// subproblem to optimality. The two baselines of the evaluation —
// Megatron-LM's monolithic orchestration (§2.1) and DistMM*'s
// FLOPs-proportional allocation (§7.2) — live here too so every
// strategy is scored by exactly the same objective.
package orchestrator

import (
	"errors"
	"fmt"
	"reflect"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
	"disttrain/internal/parallel"
	"disttrain/internal/profiler"
)

// Spec is one training task to orchestrate.
type Spec struct {
	Cluster cluster.Cluster
	Model   model.MLLM
	// GlobalBatch is BS, samples per iteration.
	GlobalBatch int
	// Microbatch is M, samples per microbatch (small constant, §4.2).
	Microbatch int
	// Profiler supplies the calibrated C_me/C_lm/C_mg cost functions and
	// the freeze setting.
	Profiler *profiler.Profiler
	// MaxGPUs caps the fleet (defaults to the whole cluster).
	MaxGPUs int
	// VPP is the LLM backbone's virtual-pipeline size (>=1); warm-up
	// time divides by it (§4.3).
	VPP int
	// Placement is the canonical placement shape of the lease this
	// spec was carved from (cluster.Lease.Shape), "" for packed or
	// standalone runs. The search itself never reads it — the shape's
	// cost impact is already folded into Cluster by Lease.Placed — but
	// plan-cache fingerprints include it, so placement-aware fleets
	// key cached plans on the shape a lease actually has.
	Placement string
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if err := s.Cluster.Validate(); err != nil {
		return err
	}
	if s.Profiler == nil {
		return errors.New("orchestrator: nil profiler")
	}
	// Seconds come from the profiler's model, FLOPs and memory from Spec.Model.
	if pm := s.Profiler.Options().Model; !reflect.DeepEqual(s.Model, pm) {
		return fmt.Errorf("orchestrator: Spec.Model (%s) is not the model the profiler times (%s)", s.Model.Name, pm.Name)
	}
	if s.GlobalBatch <= 0 || s.Microbatch <= 0 {
		return fmt.Errorf("orchestrator: batch sizes must be positive (BS=%d M=%d)", s.GlobalBatch, s.Microbatch)
	}
	if s.GlobalBatch%s.Microbatch != 0 {
		return fmt.Errorf("orchestrator: M=%d must divide BS=%d", s.Microbatch, s.GlobalBatch)
	}
	if s.VPP < 0 {
		return fmt.Errorf("orchestrator: negative VPP")
	}
	return nil
}

// ForLease scopes the spec to a lease carved out of base — the one
// place a lease becomes a planning and pricing spec, so the spec the
// plan cache keys on and the spec a leased runtime prices agree by
// construction. placed prices the lease's concrete placement (a
// fragmented lease loses rail alignment) and records its shape for the
// fingerprint; otherwise only the node count matters, so equal-size
// leases share a spec wherever their nodes land. The lease is the GPU
// budget: MaxGPUs is cleared.
func (s Spec) ForLease(base cluster.Cluster, l cluster.Lease, placed bool) Spec {
	if placed {
		s.Cluster, s.Placement = l.Placed(base), l.Shape()
	} else {
		s.Cluster, s.Placement = l.Subcluster(base), ""
	}
	s.MaxGPUs = 0
	return s
}

func (s Spec) maxGPUs() int {
	if s.MaxGPUs > 0 && s.MaxGPUs <= s.Cluster.TotalGPUs() {
		return s.MaxGPUs
	}
	return s.Cluster.TotalGPUs()
}

func (s Spec) vpp() int {
	if s.VPP < 1 {
		return 1
	}
	return s.VPP
}

// ModulePlan is the resource and parallelism decision for one module.
type ModulePlan struct {
	Module model.Module
	Config parallel.Config
	// Replicated marks encoder/generator groups that replicate the
	// model across the group instead of TP-sharding it (§7.1).
	Replicated bool
}

// GPUs returns the module's GPU count (x, y or z).
func (mp ModulePlan) GPUs() int { return mp.Config.GPUs() }

// Plan is a complete orchestration decision.
type Plan struct {
	Strategy string
	Modules  [3]ModulePlan // indexed by model.Module
	// Microbatches is the per-iteration microbatch count per LLM
	// pipeline: BS / (DP_lm * M).
	Microbatches int
	// Estimated objective breakdown (seconds).
	Warmup, Steady, IterTime float64
	// EstMFU is the analytic Model FLOPs Utilization estimate.
	EstMFU float64
	// Brokers[0] bridges encoder->backbone, Brokers[1] backbone->generator.
	Brokers [2]int
}

// TotalGPUs sums module allocations.
func (p Plan) TotalGPUs() int {
	t := 0
	for _, m := range p.Modules {
		t += m.GPUs()
	}
	return t
}

func (p Plan) String() string {
	s := fmt.Sprintf("%s plan: %d GPUs, %d microbatches, est iter %.3fs, est MFU %.1f%%\n",
		p.Strategy, p.TotalGPUs(), p.Microbatches, p.IterTime, 100*p.EstMFU)
	for _, m := range p.Modules {
		mode := "tp"
		if m.Replicated {
			mode = "replicated"
		}
		s += fmt.Sprintf("  %-9s %4d GPUs  %-22s (%s)\n", m.Module, m.GPUs(), m.Config, mode)
	}
	return s
}

// CheckMemory enforces the §4.2 memory constraint for every module:
// parameters+gradients, ZeRO-1 optimizer shards, and 1F1B peak
// activations must fit per-GPU capacity (with an 8% runtime reserve).
func CheckMemory(s Spec, p Plan) error {
	sc := newSearchCtx(&s)
	return sc.checkMemory(&p)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
