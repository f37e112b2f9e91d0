package trainer

import (
	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/orchestrator"
)

// This file is the runtime's re-planning seam: the §4.3 adaptive
// orchestration made continuous. A Controller watches each iteration's
// runtime signals and may hand the runtime a new orchestration plan to
// apply at an iteration boundary — a costed reconfiguration priced
// like failure recovery (checkpoint write + restore read priced at
// DFS bandwidth), but with no lost work. The interface lives here so the
// runtime depends only on the seam; internal/controller provides the
// drift-detecting implementation.

// Observation is one completed iteration's runtime signals, fed to the
// re-planning controller in execution order. Failure-recovery rewinds
// re-deliver iterations; controllers must deduplicate by Iter.
type Observation struct {
	// Iter is the iteration index the stats describe.
	Iter int
	// Stats is the iteration's full measurement, including the
	// iteration-time spread across DP ranks (StragglerSpread).
	Stats IterationStats
	// Batch is the iteration's global batch after any workload shift —
	// the observed sample-cost distribution. The slice is the
	// controller's own copy to keep; the samples share their
	// subsequences with the corpus and must be treated as read-only.
	Batch []data.Sample
	// Pool is a point-in-time snapshot of the producer-pool counters
	// (failovers, rejections, fetch latency) when a live pool is
	// attached (Config.PoolStats); nil otherwise.
	Pool *metrics.PoolSnapshot
}

// PlanSwitch is a controller decision: reconfigure onto Plan at the
// iteration boundary the runtime asked about.
type PlanSwitch struct {
	// Plan is the new orchestration decision. It must be feasible for
	// the runtime's Spec (the runtime re-checks batch divisibility and
	// rejects the switch otherwise).
	Plan *orchestrator.Plan
	// Reason is a human-readable trigger description, carried into the
	// run's Replan record and trace.
	Reason string
}

// Controller closes the adaptive loop at runtime. The runtime calls
// Observe after every executed iteration and Pending immediately
// before each iteration starts, both from the run loop goroutine;
// implementations may run their re-planning search on background
// goroutines and block in Pending at the boundary they scheduled —
// that is what overlaps the §4.3 search with training. Decisions must
// be deterministic in the observation sequence: two identical runs
// must trigger, search and switch identically.
type Controller interface {
	// Observe feeds one completed iteration's signals.
	Observe(Observation)
	// Pending returns the reconfiguration to apply before iteration
	// iter executes, or nil. Returning a PlanSwitch with a nil Plan is
	// equivalent to nil (a search that decided against switching).
	Pending(iter int) *PlanSwitch
}

// LeaseAware is the optional Controller extension for fleet-leased
// jobs: when the fleet scheduler resizes a job's GPU lease, the
// runtime reconfigures (the costed checkpoint-reconfigure path) and
// then notifies a LeaseAware controller with the new effective spec —
// whose Cluster is the resized lease's subcluster — and the plan now
// executing. Controllers must treat the change as a new normal: the
// re-planning problem, the incumbent plan and any drift baseline all
// moved. Called from the run-loop goroutine at the same boundary the
// reconfiguration applied.
type LeaseAware interface {
	LeaseChanged(iter int, spec orchestrator.Spec, plan *orchestrator.Plan)
}

// Replan records one applied mid-run reconfiguration.
type Replan struct {
	// AppliedAt is the iteration the new plan took effect before.
	AppliedAt int
	// Strategy names the new plan; Reason is the controller's trigger.
	Strategy string
	Reason   string
	// Downtime is the reconfiguration cost in simulated seconds:
	// checkpoint write plus restore read, priced at DFS bandwidth.
	Downtime float64
}
