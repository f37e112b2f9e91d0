package fleet

import (
	"disttrain/internal/cluster"
	"disttrain/internal/metrics"
)

// view builds the tenant's scheduler snapshot on read, so there is no
// cached copy to keep in step with the tenant. Nodes aliases the lease
// (empty unless the tenant runs: only running tenants hold nodes):
// a cluster.Lease is never mutated in place (NewLease and Without
// copy), and schedulers treat the slice as read-only (the built-ins
// copy before mutating).
func (f *runner) view(t *tenant) JobView {
	return JobView{
		ID: t.ID, Name: t.Name, Priority: t.Priority,
		Min: t.min, Max: t.max,
		Arrived: t.Arrived, Started: t.Started,
		Waited:    t.waited,
		Suspended: t.state == stateQueued && t.Started >= 0,
		Nodes:     t.Lease.Nodes,
	}
}

// schedOps is the runner's Ops implementation: every scheduler
// mutation funnels through the same lease-table accounting, costed
// trainer resizes and trace notes the built-in policies use.
type schedOps struct{ f *runner }

func (o schedOps) Healthy() int   { return o.f.table.Nodes() - o.f.table.FailedCount() }
func (o schedOps) Free() []int    { return o.f.table.Free() }
func (o schedOps) FreeCount() int { return o.f.table.FreeCount() }

// Running serves one snapshot per generation of tenant state, capped
// at its length: neither admitRunning's append nor a scheduler's
// append onto a served slice can write where another caller reads. A
// rebuild allocates rather than overwrites, so a scheduler ranging over
// one result while it shrinks or preempts keeps its view.
func (o schedOps) Running() []JobView {
	f := o.f
	if f.runViewsGen != f.gen {
		f.runViews, f.runViewsGen = nil, f.gen
		if run := f.running(); len(run) > 0 {
			f.runViews = make([]JobView, len(run))
			for i, t := range run {
				f.runViews[i] = f.view(t)
			}
		}
	}
	n := len(f.runViews)
	return f.runViews[:n:n]
}

// admitRunning is reserve's move of t to running. When the snapshot
// was current and t's id sorts last, as a fresh tenant's does under
// submission order, it gains t's view in place of a rebuild at the
// next Running; any other placement leaves it stale, to be rebuilt.
func (f *runner) admitRunning(t *tenant) {
	current := f.runViewsGen == f.gen
	f.transition(t, stateRunning, "placed")
	if n := len(f.runViews); current && (n == 0 || f.runViews[n-1].ID < t.ID) {
		f.runViews = append(f.runViews, f.view(t))
		f.runViewsGen = f.gen
	}
}

// runningTenant resolves an Ops target id to a running tenant.
func (o schedOps) runningTenant(id int) *tenant {
	if id < 0 || id >= len(o.f.tenants) {
		return nil
	}
	t := o.f.tenants[id]
	if t.state != stateRunning {
		return nil
	}
	return t
}

// Shrink implements Ops: a costed resize dropping the given nodes
// from a running tenant's lease.
func (o schedOps) Shrink(id int, drop []int, reason string) bool {
	f := o.f
	t := o.runningTenant(id)
	if t == nil || len(drop) == 0 {
		return false
	}
	shrunk := t.Lease
	for _, n := range drop {
		if !shrunk.Contains(n) {
			return false
		}
		shrunk = shrunk.Without(n)
	}
	if shrunk.NodeCount() == 0 {
		return false // shrink-to-nothing is a preemption, not a resize
	}
	if f.resize(t, shrunk, nil, reason) != nil {
		return false
	}
	if err := f.table.ReleaseNodes(t.ID, drop); err != nil {
		// Table and tenant state diverged: fail loudly via the tenant
		// rather than corrupting accounting.
		f.fail(t, "job-failed", err)
		return false
	}
	f.note("lease-shrink", metrics.Int("job", t.ID), metrics.Int("nodes", shrunk.NodeCount()))
	return true
}

// Grow implements Ops: a costed resize extending a running tenant's
// lease by the given free nodes.
func (o schedOps) Grow(id int, take []int, reason string) bool {
	f := o.f
	t := o.runningTenant(id)
	if t == nil || len(take) == 0 {
		return false
	}
	for _, n := range take {
		if f.table.ownerOf(n) != nodeFree {
			return false
		}
	}
	grown := cluster.NewLease(append(append([]int(nil), t.Lease.Nodes...), take...)...)
	if grown.NodeCount() != t.Lease.NodeCount()+len(take) {
		return false // duplicate nodes in take
	}
	if f.resize(t, grown, nil, reason) != nil {
		return false
	}
	if err := f.table.Acquire(t.ID, take); err != nil {
		f.fail(t, "job-failed", err)
		return false
	}
	f.note("lease-grow", metrics.Int("job", t.ID), metrics.Int("nodes", grown.NodeCount()))
	return true
}

// Preempt implements Ops: suspend a running tenant through the
// node-failure suspend path. The lease is released, progress
// (checkpoints, optimizer state) stays with the runtime, and the
// tenant rejoins the queue to resume later via the costed
// checkpoint-restore resize.
func (o schedOps) Preempt(id int, reason string) bool {
	f := o.f
	t := o.runningTenant(id)
	if t == nil {
		return false
	}
	f.transition(t, stateQueued, "preempted")
	t.Preemptions++
	f.queue = append(f.queue, t)
	f.queueDirty = true
	f.note("job-preempt", metrics.Int("job", t.ID), metrics.Str("reason", reason))
	return true
}
