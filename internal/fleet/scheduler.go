package fleet

import (
	"fmt"
	"sort"
)

// JobView is a scheduler's read-only view of one tenant. Schedulers
// never touch tenants directly: they read views and act through Ops,
// so every mutation stays inside the runner's accounting.
type JobView struct {
	// ID is the fleet-wide tenant id (submission order); Name the
	// instance label.
	ID   int
	Name string
	// Priority is the tenant's priority class (classNormal when the
	// submission left it empty).
	Priority Class
	// Min and Max bound the tenant's elastic lease, in nodes.
	Min, Max int
	// Nodes aliases the tenant's current lease — read-only, copy before
	// sorting or editing; nil while queued.
	Nodes []int
	// Waited counts full rounds spent in the queue since the tenant
	// last entered it — the aging input. It resets on placement.
	Waited int
	// Suspended marks a queued tenant that has run before (preempted
	// or displaced by a node failure): its progress — checkpoints,
	// optimizer state — is intact and resuming it costs one
	// checkpoint-restore, not a cold start.
	Suspended bool
}

// Ops is the mutation surface the runner offers a Scheduler: lease
// shrink/grow/preempt plus read access to the round's cluster state.
// Every operation is deterministic and applied synchronously; the
// boolean results report whether the mutation took effect (a plan
// infeasible at the new size, for example, leaves the tenant
// untouched and returns false).
type Ops interface {
	// Healthy is the fleet size excluding failed nodes.
	Healthy() int
	// Free returns the free node indices, ascending; FreeCount their
	// count. The slice is shared, read-only and capped, valid until the
	// next lease change: copy before editing or keeping it.
	Free() []int
	FreeCount() int
	// Running returns the running tenants in submission order. The
	// slice is shared, read-only, valid until the next mutation
	// (Shrink, Grow, Preempt or any tenant state change): copy before
	// sorting.
	Running() []JobView
	// Shrink releases the given nodes from a running tenant's lease as
	// a costed resize (checkpoint write + restore read charged to the
	// tenant). The nodes must all belong to the lease and must not
	// empty it.
	Shrink(id int, drop []int, reason string) bool
	// Grow extends a running tenant's lease by the given free nodes,
	// as a costed resize.
	Grow(id int, take []int, reason string) bool
	// Preempt suspends a running tenant through the node-failure
	// suspend path: its lease is released, its progress (checkpoints,
	// optimizer state) stays with the runtime, and it rejoins the
	// queue to resume later via checkpoint-restore.
	Preempt(id int, reason string) bool
}

// Scheduler decides admission order, lease sizing and placement for a
// fleet run. The runner drives it at fixed points of every round:
//
//	sort queue by Order -> GrantSize(head) ->
//	  [grant < head.Min] MakeRoom(head); GrantSize(head) again ->
//	  PlaceNodes(head, grant) -> ... -> Rebalance
//
// Implementations must be deterministic — decisions may depend only
// on the views and Ops state, never on wall clock or map order — and
// stateless across rounds (any state would break the fleet's
// byte-identity contract across reruns).
// Config.Policy selects one: a built-in looked up by name
// (LookupScheduler) or any custom implementation passed directly.
type Scheduler interface {
	// Name is the CLI name and the label in traces and results.
	Name() string
	// Order sorts the admission queue (stable; false everywhere keeps
	// strict submission order).
	Order(a, b JobView) bool
	// GrantSize sizes the queue head's lease in nodes. A grant below
	// head.Min blocks the queue (after one MakeRoom attempt).
	GrantSize(ops Ops, head JobView) int
	// MakeRoom may free capacity for a starved queue head — shrinking
	// tenants above their share, preempting lower-priority ones — or
	// do nothing.
	MakeRoom(ops Ops, head JobView)
	// PlaceNodes picks which free nodes the head's grant occupies. It
	// must return exactly grant distinct free nodes.
	PlaceNodes(ops Ops, head JobView, grant int) []int
	// Rebalance runs after admission each round — the elastic response
	// to capacity freed by completions, departures and rejoins.
	Rebalance(ops Ops)
}

// ShapedScheduler marks schedulers whose placement decisions are
// meaningful: the fleet then prices each lease against its concrete
// node set (cluster.Lease.Placed — a fragmented lease loses rail
// alignment) and keys plan-cache fingerprints on the placement shape.
// Count-based schedulers (FIFO, FairShare) don't implement it, so
// their leases keep pricing by node count alone.
type ShapedScheduler interface {
	Scheduler
	ShapedPlacement() bool
}

// Built-in schedulers, package variables so Config literals name them
// (Policy: FairShare); fifo, the nil-Policy default, is otherwise
// reached by name.
var (
	// fifo is the greedy baseline: strict submission order, each
	// admitted job takes min(MaxNodes, free) nodes and keeps that
	// lease until it completes, departs, or loses nodes to failures.
	// Capacity freed by completions serves the queue, never running
	// tenants.
	fifo Scheduler = fifoScheduler{}
	// FairShare adds elasticity on top of FIFO admission: tenants are
	// sized toward an equal share of the healthy fleet (clamped to
	// their [MinNodes, MaxNodes] range), running tenants above their
	// share shrink to admit a starved queue head, and capacity freed
	// by completions or failures grows running tenants back toward
	// their share — each change applied as the trainer's costed
	// checkpoint-reconfigure.
	FairShare Scheduler = fairShareScheduler{}
	// Priority schedules by priority class with preemption and aging;
	// see priorityScheduler.
	Priority Scheduler = &priorityScheduler{}
)

// schedulers is the name-keyed table LookupScheduler and the CLI
// -policy flag resolve against, in name order. A custom Scheduler
// needs no entry: it goes straight into Config.Policy.
var schedulers = []Scheduler{FairShare, fifo, Priority}

// LookupScheduler returns the built-in Scheduler with the given name;
// "fair" is accepted as an alias for "fair-share".
func LookupScheduler(name string) (Scheduler, error) {
	if name == "fair" {
		name = "fair-share"
	}
	for _, s := range schedulers {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (registered: %v)", name, SchedulerNames())
}

// SchedulerNames lists the built-in scheduler names, sorted.
func SchedulerNames() []string {
	out := make([]string, len(schedulers))
	for i, s := range schedulers {
		out[i] = s.Name()
	}
	return out
}

// fifoScheduler implements the FIFO policy.
type fifoScheduler struct{}

func (fifoScheduler) Name() string                { return "fifo" }
func (fifoScheduler) Order(a, b JobView) bool     { return false }
func (fifoScheduler) MakeRoom(ops Ops, _ JobView) {}
func (fifoScheduler) Rebalance(ops Ops)           {}
func (fifoScheduler) GrantSize(ops Ops, head JobView) int {
	return min(head.Max, ops.FreeCount())
}
func (fifoScheduler) PlaceNodes(ops Ops, _ JobView, grant int) []int {
	return ops.Free()[:grant]
}

// fairShareScheduler implements the FairShare policy.
type fairShareScheduler struct{}

func (fairShareScheduler) Name() string            { return "fair-share" }
func (fairShareScheduler) Order(a, b JobView) bool { return false }

// rankAmong returns id's rank (by ascending job id) within the active
// set formed by the running tenants plus the queue head — the k that
// fairShare hands the remainder out by. Running views ascend by id.
func rankAmong(running []JobView, headID, id int) int {
	rank := sort.Search(len(running), func(i int) bool { return running[i].ID >= id }) // by index: a JobView is large
	if headID < id {
		rank++
	}
	return rank
}

func (fairShareScheduler) GrantSize(ops Ops, head JobView) int {
	running := ops.Running()
	k := rankAmong(running, head.ID, head.ID)
	target := fairShare(ops.Healthy(), len(running)+1, k)
	return clamp(target, head.Min, min(head.Max, ops.FreeCount()))
}

// MakeRoom shrinks running tenants above their fair share — in
// submission order, dropping their highest-index nodes — until the
// queue head's MinNodes fit.
func (fairShareScheduler) MakeRoom(ops Ops, head JobView) {
	needed := head.Min - ops.FreeCount()
	if needed <= 0 {
		return
	}
	healthy := ops.Healthy()
	running := ops.Running()
	for i := range running {
		t := &running[i]
		if needed <= 0 {
			return
		}
		run := ops.Running()
		floor := clamp(fairShare(healthy, len(run)+1, rankAmong(run, head.ID, t.ID)), t.Min, t.Max)
		excess := len(t.Nodes) - floor
		if excess <= 0 {
			continue
		}
		drop := min(excess, needed)
		// Drop the highest-index nodes: deterministic, and it keeps
		// low-index nodes packed.
		dropNodes := append([]int(nil), t.Nodes[len(t.Nodes)-drop:]...)
		reason := fmt.Sprintf("fair-share shrink to %d nodes to admit %s", len(t.Nodes)-drop, head.Name)
		if ops.Shrink(t.ID, dropNodes, reason) {
			needed -= drop
		}
	}
}

func (fairShareScheduler) PlaceNodes(ops Ops, _ JobView, grant int) []int {
	return ops.Free()[:grant]
}

// Rebalance grows running tenants toward their fair share (clamped to
// MaxNodes) from the free pool.
func (fairShareScheduler) Rebalance(ops Ops) {
	healthy := ops.Healthy()
	running := ops.Running()
	n := len(running)
	for k := range running {
		t := &running[k]
		free := ops.Free()
		if len(free) == 0 {
			return
		}
		target := clamp(fairShare(healthy, n, k), t.Min, t.Max)
		take := min(target-len(t.Nodes), len(free))
		if take <= 0 {
			continue
		}
		reason := fmt.Sprintf("fair-share grow to %d nodes", len(t.Nodes)+take)
		ops.Grow(t.ID, free[:take], reason)
	}
}

// fairShare is the k-th (by ascending job id) active tenant's share of
// the healthy fleet: healthy/tenants, with the remainder handed out
// one node each to the lowest-id tenants so no healthy node idles
// while a tenant sits below its MaxNodes (flooring the division for
// everyone would strand healthy%tenants nodes: 5 nodes across 3
// tenants would leave 2 idle). Always at least 1.
func fairShare(healthy, tenants, k int) int {
	if tenants < 1 {
		tenants = 1
	}
	s := healthy / tenants
	if k >= 0 && k < healthy%tenants {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// clamp bounds v to [lo, hi] (hi wins when the interval is empty).
func clamp(v, lo, hi int) int {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
