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

// This file is the Job seam: one training run as a schedulable unit.
// Historically the runtime owned its whole run loop (and, implicitly,
// the whole cluster); the multi-tenant fleet runtime (internal/fleet)
// needs to interleave many runs over one shared cluster and resize
// their GPU leases at iteration boundaries. Job is that refactor: the
// run loop's state machine made explicit, advanced one pass at a time
// by Step, with Resize applying a lease change as a costed
// reconfiguration (checkpoint write + restore read — the same path
// controller plan switches ride). Run drives a Job to completion
// itself, so a standalone run and a fleet-driven 1-job run execute
// byte-identical code.

// Job is one training run in progress: the runtime plus the loop state
// of its n-iteration run. A Job is not safe for concurrent use, and
// Step runs on the caller's goroutine and starts none of its own.
type Job struct {
	r *Runtime
	n int

	res                  *Result
	timeSum, usefulFlops float64
	// Iterations execute in order and a failure rewind only goes back,
	// so "has iteration i happened before" is a high-water mark, -1
	// before the first: maxExecuted is the highest iteration completed,
	// lastFailure the highest whose node failure fired, poolFired the
	// highest whose pool events fired. Fire-once events cover exactly
	// their Start iteration, so a replayed window re-fires nothing.
	maxExecuted, lastFailure, poolFired int
	grad                                gradientAccumulator

	i        int
	finished bool
}

// NewJob builds a Job that will execute n iterations — the same path
// Run drives. The fleet runtime advances it with Step and finalises
// with Finish.
func (r *Runtime) NewJob(n int) (*Job, error) {
	if n <= 0 {
		return nil, errors.New("trainer: need at least one iteration")
	}
	j := &Job{
		r: r, n: n,
		res:         &Result{Strategy: r.cls.plan.Strategy, GPUs: r.cls.gpus, Iterations: make([]IterationStats, 0, n)},
		maxExecuted: -1, lastFailure: -1, poolFired: -1,
	}
	if r.cfg.GradientDim > 0 {
		j.grad = gradientAccumulator{Dim: r.cfg.GradientDim}
		j.res.GradientSum = make([]int64, r.cfg.GradientDim)
	}
	return j, nil
}

// Done reports whether every iteration has executed. Finish is still
// required to aggregate the Result.
func (j *Job) Done() bool { return j.i >= j.n }

// Iteration returns the next iteration boundary: the index the next
// Step will execute (or rewind across).
func (j *Job) Iteration() int { return j.i }

// firePoolEvents dispatches iteration iter's pool-membership events:
// producer-fail kills a live pool member (subsequent fetches fail
// over), producer-join restores one. Each event fires once, even
// across failure-recovery rewinds. It runs at the start of the
// iteration's Step, before its batch is fetched, so an event at
// iteration N is recorded at N's start and affects every one of N's
// fetches. pert is the scenario resolved at iter.
func (j *Job) firePoolEvents(iter int, pert scenario.Perturbation) error {
	if iter <= j.poolFired {
		return nil
	}
	j.poolFired = iter
	r := j.r
	for _, ev := range pert.PoolEvents() {
		if pc := r.cfg.ProducerControl; pc != nil {
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
		if tr := r.cfg.Trace; tr != nil {
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
func (j *Job) applySwitch(i int, sw *PlanSwitch) {
	r := j.r
	if err := checkPlan(&r.cls.spec, sw.Plan); err != nil {
		if tr := r.cfg.Trace; tr != nil {
			tr.Instant("replan-rejected", "controller", r.clock, metrics.Int("iter", i), metrics.Str("error", err.Error()))
		}
		return
	}
	cls, _ := r.classOf(&r.cls.spec, sw.Plan, nil) // no check: no error
	j.switchPlan(i, cls, sw.Reason, "controller", "replan",
		metrics.Int("iter", i), metrics.Str("strategy", sw.Plan.Strategy), metrics.Str("reason", sw.Reason))
}

// switchPlan is the one costed reconfiguration onto cls, at the boundary
// before iteration i: the checkpoint write and restore read are priced,
// charged to the job as downtime and recorded as a Replan. The trace
// gets the caller's instant plus the reconfigure span on the caller's
// lane.
func (j *Job) switchPlan(i int, cls *class, reason, cat, event string, args ...metrics.Arg) {
	r := j.r
	down := r.reconfigure(cls, i)
	j.res.PlanSwitches++
	j.res.DowntimeSeconds += down
	j.res.Replans = append(j.res.Replans, Replan{
		AppliedAt: i, Strategy: cls.plan.Strategy, Reason: reason, Downtime: down,
	})
	if tr := r.cfg.Trace; tr != nil {
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
func (j *Job) Resize(l cluster.Lease, p *orchestrator.Plan, reason string) error {
	r := j.r
	if j.finished {
		return errors.New("trainer: resize after Finish")
	}
	if r.cfg.Lease == nil {
		return errors.New("trainer: resize on a job without a lease")
	}
	base := r.cfg.Spec.Cluster // the template's: the shared cluster
	if err := l.Validate(base); err != nil {
		return err
	}
	// The plan is checked, and the switch priced, under the incoming
	// geometry, scoped from the class's validated spec; an infeasible
	// plan leaves the old lease and class.
	spec := r.cls.spec.ForLease(base, l, r.cfg.PlacementPricing)
	err := checkPlan(&spec, p)
	if err == nil && p.TotalGPUs() > l.GPUs(base) {
		err = fmt.Errorf("trainer: resize plan wants %d GPUs, lease has %d", p.TotalGPUs(), l.GPUs(base))
	}
	if err != nil {
		return err
	}
	cls, _ := r.classOf(&spec, p, nil) // no check: no error
	j.switchPlan(j.i, cls, reason, "fleet", "lease-resize",
		metrics.Int("iter", j.i), metrics.Int("nodes", l.NodeCount()), metrics.Str("reason", reason))
	return nil
}

// Step executes one pass of the run loop: either the next iteration
// (with its pool events, controller boundary and observation), or a
// failure-recovery rewind. Calling Step after Done is an error.
func (j *Job) Step() error {
	if j.Done() {
		return errors.New("trainer: step after completion")
	}
	r := j.r
	i := j.i
	pert := scenario.At(r.cfg.Scenario, i)
	if err := j.firePoolEvents(i, pert); err != nil {
		return err
	}
	// A node failure interrupts the iteration it lands on: pay the
	// downtime, restore the latest checkpoint, re-execute the
	// iterations lost since it. Each failure event fires once.
	if ev, ok := pert.Failure(); ok && i > j.lastFailure {
		j.lastFailure = i
		resume, restore := r.recoverFromFailure()
		down := ev.Downtime + restore
		j.res.Failures++
		j.res.DowntimeSeconds += down
		j.res.ReExecutedIterations += i - resume
		j.res.Recoveries = append(j.res.Recoveries, Recovery{FailedAt: i, ResumedFrom: resume, Downtime: down})
		if tr := r.cfg.Trace; tr != nil {
			tr.Instant("node-failure", "scenario", r.clock, metrics.Int("iter", i))
			tr.Complete("recovery", "scenario", r.clock, down)
		}
		r.clock += down
		j.i = resume
		return nil
	}
	// The re-planning controller gets the boundary before the
	// iteration: a switch it scheduled for this boundary (if any)
	// applies as a costed reconfiguration.
	if ctl := r.cfg.Controller; ctl != nil {
		if sw := ctl.Pending(i); sw != nil && sw.Plan != nil {
			j.applySwitch(i, sw)
		}
	}
	p := r.prepare(i, pert)
	st, err := r.iteration(&p, pert)
	if err != nil {
		return err
	}
	j.res.Iterations = append(j.res.Iterations, st)
	j.timeSum += st.Breakdown.Total()
	if i > j.maxExecuted {
		j.maxExecuted = i
		j.usefulFlops += st.FLOPs
		if j.res.GradientSum != nil {
			// Exact commutative accumulation over the global batch:
			// re-executions (optimizer state rewound) count once.
			g := j.grad.AccumulateInt(p.batch)
			for k := range j.res.GradientSum {
				j.res.GradientSum[k] += g[k]
			}
		}
	}
	if ctl := r.cfg.Controller; ctl != nil {
		obs := Observation{Iter: i, Stats: st, Batch: slices.Clone(p.batch)}
		if src := r.cfg.Source; src != nil && src.Pool != nil {
			snap := src.Pool.Snapshot()
			obs.Pool = &snap
		}
		ctl.Observe(obs)
	}
	j.i++
	return nil
}

// Finish aggregates the Result. It is idempotent and valid after any
// number of Steps — the fleet runtime finalises departed jobs mid-run
// — but a job aborted with zero executed iterations reports zeroed
// aggregates.
func (j *Job) Finish() *Result {
	if j.finished {
		return j.res
	}
	j.finished = true
	r := j.r
	spec, res := &r.cls.spec, j.res
	if executed := float64(len(res.Iterations)); executed > 0 {
		res.MeanIterTime = j.timeSum / executed
		wall := j.timeSum + res.DowntimeSeconds
		res.MFU = metrics.MFU(j.usefulFlops, res.GPUs, spec.Cluster.GPU.PeakFLOPS, wall)
		if res.Failures == 0 && res.PlanSwitches == 0 {
			res.TokensPerSec = metrics.Throughput(spec.GlobalBatch, spec.Model.SeqLen, res.MeanIterTime)
		} else {
			// Useful tokens over total wall-clock: redone iterations,
			// recovery downtime and reconfiguration downtime all cost
			// throughput — they don't produce tokens twice (or at all).
			res.TokensPerSec = float64(j.maxExecuted+1) * float64(spec.GlobalBatch) * float64(spec.Model.SeqLen) / wall
		}
	}
	res.CheckpointsSaved = r.ckptSaved
	return res
}
