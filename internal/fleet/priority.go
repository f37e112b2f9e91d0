package fleet

import (
	"fmt"
	"sort"
)

// Class is a job's priority class. The empty string means classNormal,
// so existing JobSpec literals keep their behaviour.
type Class string

// The well-known priority classes, lowest to highest.
const (
	classLow    Class = "low"
	classNormal Class = "normal"
	classHigh   Class = "high"
)

// Rank orders classes: low=0, normal=1 (including the empty default),
// high=2.
func (c Class) Rank() int {
	switch c {
	case classLow:
		return 0
	case classHigh:
		return 2
	}
	return 1
}

func (c Class) String() string {
	if c == "" {
		return string(classNormal)
	}
	return string(c)
}

// ParseClass validates a priority-class name. The empty string is
// classNormal.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "", classNormal:
		return classNormal, nil
	case classLow:
		return classLow, nil
	case classHigh:
		return classHigh, nil
	}
	return "", fmt.Errorf("fleet: unknown priority class %q (want low, normal or high)", s)
}

// agingRounds is the queue age, in scheduling rounds, worth one full
// priority class.
const agingRounds = 8

// priorityScheduler schedules by priority class with preemption,
// aging and placement scoring:
//
//   - Admission order is effective priority — class rank times
//     agingRounds plus rounds waited — so a queued job gains one
//     class worth of priority every agingRounds rounds. Starvation is
//     bounded: a low job waiting w rounds outranks every fresher
//     arrival (any class) once w exceeds 2*agingRounds plus the
//     competitor's wait, and strict head-blocking then reserves the
//     next freed capacity for it.
//   - MakeRoom preempts running tenants of strictly lower class
//     (never merely lower effective priority: aging lets a job jump
//     the queue, not evict running work) through the node-failure
//     suspend path, so a victim resumes later via checkpoint-restore
//     with its progress intact. Preemption is gang-aware: victims are
//     suspended only when free capacity plus everything preemptible
//     covers the head's full MinNodes gang.
//   - PlaceNodes scores fragmentation and locality instead of taking
//     the first free nodes: a contiguous run keeps the lease
//     rail-aligned and broker traffic between adjacent parallelism
//     units on adjacent nodes (best-fit run, lowest index on ties);
//     when no run fits, whole runs are taken largest-first to
//     minimise fragments. Leases are priced against this concrete
//     placement (ShapedPlacement), so a fragmented lease pays the
//     derated fabric.
//
// Priority is the one instance, listed as "priority".
type priorityScheduler struct{}

func (p *priorityScheduler) Name() string { return "priority" }

// ShapedPlacement marks the scheduler's placements as meaningful, so
// the fleet prices leases against their concrete node sets.
func (p *priorityScheduler) ShapedPlacement() bool { return true }

// Effective returns a view's effective priority: class rank scaled by
// the aging horizon, plus rounds waited. Uncapped, so any job
// eventually outranks any fixed class.
func (p *priorityScheduler) Effective(v JobView) int {
	return v.Priority.Rank()*agingRounds + v.Waited
}

// Order sorts by effective priority (descending), suspended tenants
// first within a tie (their progress is sunk cost), then submission
// order.
func (p *priorityScheduler) Order(a, b JobView) bool {
	ea, eb := p.Effective(a), p.Effective(b)
	if ea != eb {
		return ea > eb
	}
	if a.Suspended != b.Suspended {
		return a.Suspended
	}
	return a.ID < b.ID
}

// GrantSize is greedy like FIFO: the head takes min(MaxNodes, free).
func (p *priorityScheduler) GrantSize(ops Ops, head JobView) int {
	return min(head.Max, ops.FreeCount())
}

// MakeRoom preempts running tenants of strictly lower class until the
// head's MinNodes gang fits, cheapest class first and newest tenant
// first within a class — or not at all when even preempting every
// candidate could not fit the gang.
func (p *priorityScheduler) MakeRoom(ops Ops, head JobView) {
	needed := head.Min - ops.FreeCount()
	if needed <= 0 {
		return
	}
	var victims []JobView
	avail := ops.FreeCount()
	for _, t := range ops.Running() {
		if t.Priority.Rank() < head.Priority.Rank() {
			victims = append(victims, t)
			avail += len(t.Nodes)
		}
	}
	if avail < head.Min {
		return // gang-aware: partial preemption would only add churn
	}
	sort.SliceStable(victims, func(i, j int) bool {
		ri, rj := victims[i].Priority.Rank(), victims[j].Priority.Rank()
		if ri != rj {
			return ri < rj
		}
		return victims[i].ID > victims[j].ID
	})
	for _, v := range victims {
		if ops.FreeCount() >= head.Min {
			return
		}
		reason := fmt.Sprintf("preempted by %s (%s over %s)", head.Name, head.Priority, v.Priority)
		ops.Preempt(v.ID, reason)
	}
}

// PlaceNodes picks the grant's nodes by fragmentation score; see the
// type comment.
func (p *priorityScheduler) PlaceNodes(ops Ops, _ JobView, grant int) []int {
	return packNodes(ops.Free(), grant)
}

// Rebalance is a no-op: the priority fleet does not grow running
// tenants elastically — freed capacity goes to the aged queue, and
// growth would only create more preemption churn later.
func (p *priorityScheduler) Rebalance(ops Ops) {}

// nodeRun is a maximal stretch of consecutive free node indices.
type nodeRun struct{ first, count int }

// freeRuns decomposes an ascending free list into maximal consecutive
// runs.
func freeRuns(free []int) []nodeRun {
	var runs []nodeRun
	for _, n := range free {
		if len(runs) > 0 && runs[len(runs)-1].first+runs[len(runs)-1].count == n {
			runs[len(runs)-1].count++
			continue
		}
		runs = append(runs, nodeRun{first: n, count: 1})
	}
	return runs
}

// packNodes chooses grant nodes from the free set, minimising
// fragmentation: the smallest single run that holds the whole grant
// (lowest index on ties — best fit), else whole runs largest-first
// (lowest index on ties) until the grant is covered, taking the tail
// run's lowest indices.
func packNodes(free []int, grant int) []int {
	runs := freeRuns(free)
	best := -1
	for i, r := range runs {
		if r.count < grant {
			continue
		}
		if best < 0 || r.count < runs[best].count {
			best = i
		}
	}
	if best >= 0 {
		out := make([]int, 0, grant)
		for n := runs[best].first; len(out) < grant; n++ {
			out = append(out, n)
		}
		return out
	}
	sort.SliceStable(runs, func(i, j int) bool {
		if runs[i].count != runs[j].count {
			return runs[i].count > runs[j].count
		}
		return runs[i].first < runs[j].first
	})
	out := make([]int, 0, grant)
	for _, r := range runs {
		for n := r.first; n < r.first+r.count && len(out) < grant; n++ {
			out = append(out, n)
		}
		if len(out) == grant {
			break
		}
	}
	sort.Ints(out)
	return out
}
