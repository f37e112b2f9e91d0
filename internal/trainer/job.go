package trainer

import (
	"errors"
	"fmt"
	"slices"

	"disttrain/internal/cluster"
	"disttrain/internal/metrics"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
)

// This file is the run loop as a schedulable unit. The multi-tenant
// fleet runtime (internal/fleet) interleaves many runs over one shared
// cluster and resizes their GPU leases at iteration boundaries, so the
// loop's state lives on the Runtime, armed by NewJob and advanced one
// pass at a time by Step, with Resize applying a lease change as a
// costed reconfiguration (checkpoint write + restore read, the same
// path controller plan switches ride). Run arms and drives the loop
// itself, so a standalone run and a fleet-driven 1-job run execute
// byte-identical code.

// Job is a run in progress: its Runtime. The alias is kept only for
// benchmark/ until a later benchmark change deletes it.
type Job = Runtime

// NewJob arms the runtime to execute n iterations — the same path Run
// drives — and returns it. The fleet runtime advances it with Step and
// finalises with Finish. Arming replaces the loop state and the
// checkpoint record of any earlier run, never the Result that run
// handed out: a re-armed run starts at iteration 0, so a failure in it
// must not resume from a step of the earlier run. The class (the plan
// and lease in force) and the trace cursor carry over. An invalid n
// leaves the runtime as it was.
func (r *Runtime) NewJob(n int) (*Job, error) {
	if n <= 0 {
		return nil, errors.New("trainer: need at least one iteration")
	}
	r.n, r.i, r.finished = n, 0, false
	r.timeSum, r.usefulFlops = 0, 0
	r.maxExecuted, r.lastFailure, r.poolFired = -1, -1, -1
	r.ckptStep, r.ckptBytes, r.ckptSaved = -1, 0, 0
	r.res = &Result{Strategy: r.cls.plan.Strategy, GPUs: r.cls.gpus, Iterations: make([]IterationStats, 0, n)}
	if r.grad.Dim > 0 {
		r.res.GradientSum = make([]int64, r.grad.Dim)
	}
	return r, nil
}

// Done reports whether every iteration has executed. Finish is still
// required to aggregate the Result.
func (r *Runtime) Done() bool { return r.i >= r.n }

// Iteration returns the next iteration boundary: the index the next
// Step will execute (or rewind across).
func (r *Runtime) Iteration() int { return r.i }

// firePoolEvents dispatches iteration iter's pool-membership events:
// producer-fail kills a live pool member (subsequent fetches fail
// over), producer-join restores one. Each event fires once, even
// across failure-recovery rewinds. It runs at the start of the
// iteration's Step, before its batch is fetched, so an event at
// iteration N is recorded at N's start and affects every one of N's
// fetches. pert is the scenario resolved at iter.
func (r *Runtime) firePoolEvents(iter int, pert scenario.Perturbation) error {
	if iter <= r.poolFired {
		return nil
	}
	r.poolFired = iter
	for _, ev := range pert.PoolEvents() {
		if pc := r.producers; pc != nil {
			var err error
			if ev.Kind == scenario.ProducerFail {
				err = pc.FailProducer(ev.Producer)
			} else {
				err = pc.JoinProducer(ev.Producer)
			}
			if err != nil {
				return fmt.Errorf("trainer: %s producer %d at iter %d: %w", ev.Kind, ev.Producer, iter, err)
			}
		}
		if tr := r.trace; tr != nil {
			tr.Instant(ev.Kind.String(), "scenario", r.clock, metrics.Int("iter", iter), metrics.Int("producer", ev.Producer))
		}
	}
	return nil
}

// applySwitch reconfigures onto a controller-chosen plan at the
// boundary before iteration i: a costed plan switch (checkpoint write
// + restore read). An infeasible plan (the seam is public: a
// controller may hand back anything) rejects the switch and continues
// on the incumbent.
func (r *Runtime) applySwitch(i int, sw *PlanSwitch) {
	if err := checkPlan(&r.cls.spec, sw.Plan); err != nil {
		if tr := r.trace; tr != nil {
			tr.Instant("replan-rejected", "controller", r.clock, metrics.Int("iter", i), metrics.Str("error", err.Error()))
		}
		return
	}
	r.switchPlan(i, r.rescope(&r.cls.spec, sw.Plan), sw.Reason, "controller", "replan",
		metrics.Int("iter", i), metrics.Str("strategy", sw.Plan.Strategy), metrics.Str("reason", sw.Reason))
}

// switchPlan is the one costed reconfiguration onto cls, at the boundary
// before iteration i: the checkpoint write and restore read are priced,
// charged to the run as downtime and recorded as a Replan. The trace
// gets the caller's instant plus the reconfigure span on the caller's
// lane.
func (r *Runtime) switchPlan(i int, cls *class, reason, cat, event string, args ...metrics.Arg) {
	down := r.reconfigure(cls, i)
	r.res.PlanSwitches++
	r.res.DowntimeSeconds += down
	r.res.Replans = append(r.res.Replans, Replan{
		AppliedAt: i, Strategy: cls.plan.Strategy, Reason: reason, Downtime: down,
	})
	if tr := r.trace; tr != nil {
		tr.Instant(event, cat, r.clock, args...)
		tr.Complete("reconfigure", cat, r.clock, down)
	}
	r.clock += down
}

// Resize applies a new lease — grown or shrunk by the fleet scheduler
// — at the current iteration boundary, reconfiguring onto the plan
// chosen for the new geometry. It is the controller's costed
// checkpoint-reconfigure path triggered by a lease change instead of
// drift: checkpoint write under the outgoing geometry, restore read
// under the incoming one, downtime charged to the job. The job must
// hold a lease (fleet-managed runs always do); an infeasible plan
// rejects the resize with an error and leaves the job untouched, so
// the scheduler can keep the old lease.
func (r *Runtime) Resize(l cluster.Lease, p *orchestrator.Plan, reason string) error {
	if r.finished {
		return errors.New("trainer: resize after Finish")
	}
	if !r.leased {
		return errors.New("trainer: resize on a job without a lease")
	}
	if err := l.Validate(r.base); err != nil {
		return err
	}
	// The plan is checked, and the switch priced, under the incoming
	// geometry, scoped from the class's validated spec; an infeasible
	// plan leaves the old lease and class.
	spec := r.cls.spec.ForLease(r.base, l, r.placed)
	err := checkPlan(&spec, p)
	if err == nil && p.TotalGPUs() > l.GPUs(r.base) {
		err = fmt.Errorf("trainer: resize plan wants %d GPUs, lease has %d", p.TotalGPUs(), l.GPUs(r.base))
	}
	if err != nil {
		return err
	}
	r.switchPlan(r.i, r.rescope(&spec, p), reason, "fleet", "lease-resize",
		metrics.Int("iter", r.i), metrics.Int("nodes", l.NodeCount()), metrics.Str("reason", reason))
	return nil
}

// Step executes one pass of the run loop: either the next iteration
// (with its pool events, controller boundary and observation), or a
// failure-recovery rewind. Calling Step after Done is an error.
func (r *Runtime) Step() error {
	if r.Done() {
		return errors.New("trainer: step after completion")
	}
	i := r.i
	pert := scenario.At(r.scenario, i)
	if err := r.firePoolEvents(i, pert); err != nil {
		return err
	}
	// A node failure interrupts the iteration it lands on: pay the
	// downtime, restore the latest checkpoint, re-execute the
	// iterations lost since it. Each failure event fires once.
	if ev, ok := pert.Failure(); ok && i > r.lastFailure {
		r.lastFailure = i
		resume, restore := r.recoverFromFailure()
		down := ev.Downtime + restore
		r.res.Failures++
		r.res.DowntimeSeconds += down
		r.res.ReExecutedIterations += i - resume
		r.res.Recoveries = append(r.res.Recoveries, Recovery{FailedAt: i, ResumedFrom: resume, Downtime: down})
		if tr := r.trace; tr != nil {
			tr.Instant("node-failure", "scenario", r.clock, metrics.Int("iter", i))
			tr.Complete("recovery", "scenario", r.clock, down)
		}
		r.clock += down
		r.i = resume
		return nil
	}
	// The re-planning controller gets the boundary before the
	// iteration: a switch it scheduled for this boundary (if any)
	// applies as a costed reconfiguration.
	if ctl := r.controller; ctl != nil {
		if sw := ctl.Pending(i); sw != nil && sw.Plan != nil {
			r.applySwitch(i, sw)
		}
	}
	p := r.prepare(i, pert)
	st, err := r.iteration(&p, pert)
	if err != nil {
		return err
	}
	r.res.Iterations = append(r.res.Iterations, st)
	r.timeSum += st.Breakdown.Total()
	if i > r.maxExecuted {
		r.maxExecuted = i
		r.usefulFlops += st.FLOPs
		if r.res.GradientSum != nil {
			// Exact commutative accumulation over the global batch:
			// re-executions (optimizer state rewound) count once.
			g := r.grad.AccumulateInt(p.batch)
			for k := range r.res.GradientSum {
				r.res.GradientSum[k] += g[k]
			}
		}
	}
	if ctl := r.controller; ctl != nil {
		obs := Observation{Iter: i, Stats: st, Batch: slices.Clone(p.batch)}
		if src := r.source; src != nil && src.Pool != nil {
			snap := src.Pool.Snapshot()
			obs.Pool = &snap
		}
		ctl.Observe(obs)
	}
	r.i++
	return nil
}

// Finish aggregates the Result. It is idempotent and valid after any
// number of Steps — the fleet runtime finalises departed jobs mid-run
// — but a job aborted with zero executed iterations reports zeroed
// aggregates.
func (r *Runtime) Finish() *Result {
	if r.finished {
		return r.res
	}
	r.finished = true
	spec, res := &r.cls.spec, r.res
	if executed := float64(len(res.Iterations)); executed > 0 {
		res.MeanIterTime = r.timeSum / executed
		wall := r.timeSum + res.DowntimeSeconds
		res.MFU = metrics.MFU(r.usefulFlops, res.GPUs, spec.Cluster.GPU.PeakFLOPS, wall)
		if res.Failures == 0 && res.PlanSwitches == 0 {
			res.TokensPerSec = metrics.Throughput(spec.GlobalBatch, spec.Model.SeqLen, res.MeanIterTime)
		} else {
			// Useful tokens over total wall-clock: redone iterations,
			// recovery downtime and reconfiguration downtime all cost
			// throughput — they don't produce tokens twice (or at all).
			res.TokensPerSec = float64(r.maxExecuted+1) * float64(spec.GlobalBatch) * float64(spec.Model.SeqLen) / wall
		}
	}
	res.CheckpointsSaved = r.ckptSaved
	return res
}
