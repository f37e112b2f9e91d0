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
// controller plan switches ride). Run and RunSequential drive a Job to
// completion themselves, so a standalone run and a fleet-driven 1-job
// run execute byte-identical code.

// Job is one training run in progress: the runtime plus the loop state
// of its n-iteration run. A Job is not safe for concurrent use; the
// concurrency lives inside Step (rank workers, prefetch), not across
// callers — the same contract as Runtime.
type Job struct {
	r *Runtime
	n int
	// prefetch is off only on the pinned serial reference
	// (RunSequential), which also runs the rank workers inline.
	prefetch bool

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

	// The async data service: at most one outstanding prepare, consumed
	// (or discarded, after a failure rewind or reconfiguration) before
	// the next launches; pendingIter is its iteration, -1 for none.
	pendingIter int
	pending     chan preparedBatch

	i        int
	finished bool
}

// NewJob builds a Job that will execute n iterations on the concurrent
// engine with the async data service — the same path Run drives. The
// fleet runtime advances it with Step and finalises with Finish.
func (r *Runtime) NewJob(n int) (*Job, error) {
	return r.newJob(n, true)
}

func (r *Runtime) newJob(n int, prefetch bool) (*Job, error) {
	if n <= 0 {
		return nil, errors.New("trainer: need at least one iteration")
	}
	j := &Job{
		r: r, n: n, prefetch: prefetch,
		res:         &Result{Strategy: r.cfg.Plan.Strategy, GPUs: r.cfg.Plan.TotalGPUs()},
		maxExecuted: -1, lastFailure: -1, poolFired: -1,
		pendingIter: -1,
		pending:     make(chan preparedBatch, 1),
	}
	if r.cfg.GradientDim > 0 {
		j.grad = gradientAccumulator{Dim: r.cfg.GradientDim}
		j.res.GradientSum = make([]int64, r.cfg.GradientDim)
	}
	r.reserveTrace(n)
	return j, nil
}

// reserveTrace preallocates the trace's event capacity from the run
// length: an iteration records a handful of serial phases and 2 ops
// (fwd+bwd) per microbatch per stage — GlobalBatch/Microbatch
// microbatches in all, however the plan splits them over DP ranks.
func (r *Runtime) reserveTrace(n int) {
	tr := r.cfg.Trace
	if tr == nil {
		return
	}
	mbs := 0
	if r.cfg.Spec.Microbatch > 0 {
		mbs = r.cfg.Spec.GlobalBatch / r.cfg.Spec.Microbatch
	}
	tr.Reserve(n*(2*mbs*r.stages+4) + 4)
}

// Done reports whether every iteration has executed. Finish is still
// required to aggregate the Result.
func (j *Job) Done() bool { return j.i >= j.n }

// Iteration returns the next iteration boundary: the index the next
// Step will execute (or rewind across).
func (j *Job) Iteration() int { return j.i }

// discardPrefetch drains an outstanding prepare whose assignment is no
// longer valid (failure rewind, plan switch, lease change).
func (j *Job) discardPrefetch() {
	if j.pendingIter >= 0 {
		<-j.pending
		j.pendingIter = -1
	}
}

// fetch returns iteration i's prepared batch, consuming the prefetched
// one when it matches.
func (j *Job) fetch(i int) preparedBatch {
	if was := j.pendingIter; was >= 0 {
		p := <-j.pending
		j.pendingIter = -1
		if was == i {
			return p
		}
	}
	return j.r.prepare(i)
}

// launch starts the async prepare of iteration i.
func (j *Job) launch(i int) {
	if !j.prefetch || i >= j.n {
		return
	}
	go func() { j.pending <- j.r.prepare(i) }()
	j.pendingIter = i
}

// firePoolEvents dispatches iteration iter's pool-membership events:
// producer-fail kills a live pool member (subsequent fetches fail
// over), producer-join restores one. Each event fires once, even
// across failure-recovery rewinds. It runs before the iteration's
// batch is fetched — for the prefetched path that means before
// launch(iter), one loop pass early — so an event at iteration N
// deterministically affects iteration N's fetches.
func (j *Job) firePoolEvents(iter int) error {
	if iter <= j.poolFired {
		return nil
	}
	j.poolFired = iter
	r := j.r
	for _, ev := range scenario.At(r.cfg.Scenario, iter).PoolEvents() {
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
			tr.Instant(ev.Kind.String(), "scenario", r.clock, map[string]any{"iter": iter, "producer": ev.Producer})
		}
	}
	return nil
}

// applySwitch reconfigures onto a controller-chosen plan at the
// boundary before iteration i: a costed plan switch (checkpoint write
// + restore read), with any prefetched batch discarded — its DP
// assignment was computed under the old geometry. An infeasible plan
// (the seam is public: a controller may hand back anything) rejects
// the switch and continues on the incumbent; only real runtime
// failures (checkpoint write errors) abort.
func (j *Job) applySwitch(i int, sw *PlanSwitch) error {
	r := j.r
	if err := r.checkPlan(sw.Plan); err != nil {
		if tr := r.cfg.Trace; tr != nil {
			tr.Instant("replan-rejected", "controller", r.clock,
				map[string]any{"iter": i, "error": err.Error()})
		}
		return nil
	}
	j.discardPrefetch()
	return j.switchPlan(i, sw.Plan, sw.Reason, "controller", "replan",
		map[string]any{"iter": i, "strategy": sw.Plan.Strategy, "reason": sw.Reason})
}

// switchPlan is the one costed reconfiguration, at the boundary before
// iteration i: the checkpoint write and restore read are priced,
// charged to the job as downtime and recorded as a Replan. The trace
// gets the caller's instant plus the reconfigure span on the caller's
// lane. The caller has discarded any prefetched batch.
func (j *Job) switchPlan(i int, p *orchestrator.Plan, reason, cat, event string, args map[string]any) error {
	r := j.r
	down, err := r.reconfigure(p, i)
	if err != nil {
		return err
	}
	j.res.PlanSwitches++
	j.res.DowntimeSeconds += down
	j.res.Replans = append(j.res.Replans, Replan{
		AppliedAt: i, Strategy: p.Strategy, Reason: reason, Downtime: down,
	})
	if tr := r.cfg.Trace; tr != nil {
		tr.Instant(event, cat, r.clock, args)
		tr.Complete("reconfigure", cat, r.clock, down)
	}
	r.clock += down
	return nil
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
	if err := l.Validate(r.base); err != nil {
		return err
	}
	// Drain the async prepare before touching any runtime state it
	// may read (same ordering as applySwitch). Discarding is
	// semantically free: a later fetch re-prepares the identical
	// batch.
	j.discardPrefetch()
	// The plan is checked, and the switch priced, under the incoming
	// geometry; any failure — an infeasible plan, a reconfiguration
	// checkpoint that did not write — puts the old spec back with the
	// old lease and plan.
	old := r.cfg.Spec
	r.cfg.Spec = old.ForLease(r.base, l, r.cfg.PlacementPricing)
	err := r.checkPlan(p)
	if err == nil && p.TotalGPUs() > l.GPUs(r.base) {
		err = fmt.Errorf("trainer: resize plan wants %d GPUs, lease has %d", p.TotalGPUs(), l.GPUs(r.base))
	}
	if err == nil {
		err = j.switchPlan(j.i, p, reason, "fleet", "lease-resize",
			map[string]any{"iter": j.i, "nodes": l.NodeCount(), "reason": reason})
	}
	if err != nil {
		r.cfg.Spec = old
		return err
	}
	r.cfg.Lease = &l
	if la, ok := r.cfg.Controller.(LeaseAware); ok {
		la.LeaseChanged(j.i, r.cfg.Spec, p)
	}
	return nil
}

// Step executes one pass of the run loop: either the next iteration
// (with its pool events, controller boundary, prefetch hand-off and
// observation), or a failure-recovery rewind. Calling Step after Done
// is an error.
func (j *Job) Step() error {
	if j.Done() {
		return errors.New("trainer: step after completion")
	}
	r := j.r
	i := j.i
	pert := scenario.At(r.cfg.Scenario, i)
	if err := j.firePoolEvents(i); err != nil {
		return err
	}
	// A node failure interrupts the iteration it lands on: pay the
	// downtime, restore the latest DFS checkpoint, re-execute the
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
			tr.Instant("node-failure", "scenario", r.clock, map[string]any{"iter": i})
			tr.Complete("recovery", "scenario", r.clock, down)
		}
		r.clock += down
		j.i = resume
		return nil
	}
	// The re-planning controller gets the boundary before the
	// iteration: a scheduled concurrent plan search joins here and the
	// switch (if any) applies as a costed reconfiguration.
	if ctl := r.cfg.Controller; ctl != nil {
		if sw := ctl.Pending(i); sw != nil && sw.Plan != nil {
			if err := j.applySwitch(i, sw); err != nil {
				return err
			}
		}
	}
	p := j.fetch(i)
	// The next iteration's pool events fire before its prefetch
	// launches, so a producer killed "at iteration i+1" is dead for
	// every one of iteration i+1's fetches.
	if i+1 < j.n {
		if err := j.firePoolEvents(i + 1); err != nil {
			return err
		}
	}
	j.launch(i + 1)
	workers := 1
	if j.prefetch {
		workers = r.workers()
	}
	st, err := r.iteration(p, workers)
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
		if r.cfg.PoolStats != nil {
			snap := r.cfg.PoolStats.Snapshot()
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
	j.discardPrefetch()
	r := j.r
	res := j.res
	if executed := float64(len(res.Iterations)); executed > 0 {
		res.MeanIterTime = j.timeSum / executed
		wall := j.timeSum + res.DowntimeSeconds
		res.MFU = metrics.MFU(j.usefulFlops, res.GPUs, r.cfg.Spec.Cluster.GPU.PeakFLOPS, wall)
		if res.Failures == 0 && res.PlanSwitches == 0 {
			res.TokensPerSec = metrics.Throughput(r.cfg.Spec.GlobalBatch, r.cfg.Spec.Model.SeqLen, res.MeanIterTime)
		} else {
			// Useful tokens over total wall-clock: redone iterations,
			// recovery downtime and reconfiguration downtime all cost
			// throughput — they don't produce tokens twice (or at all).
			res.TokensPerSec = float64(j.maxExecuted+1) * float64(r.cfg.Spec.GlobalBatch) * float64(r.cfg.Spec.Model.SeqLen) / wall
		}
	}
	if r.ckpt != nil {
		r.ckpt.Flush()
		res.CheckpointsSaved = r.ckpt.Saved()
	}
	return res
}
