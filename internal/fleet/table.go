// Package fleet is the multi-tenant runtime: it admits a stream of
// training jobs, places them on a shared cluster.Cluster through an
// explicit lease table, elastically grows and shrinks their GPU
// leases as tenants come and go (reusing the trainer's costed
// checkpoint-reconfigure path), and shares one content-keyed plan
// cache so identical tenants pay for a single §4.3 search. DistTrain
// runs on a production cluster that serves a stream of jobs (§7);
// this package makes the repo's single-job runtime that cluster.
//
// Determinism is the contract, exactly as everywhere else in the
// repo: the fleet advances in rounds — every running job executes one
// training iteration per round, in submission order on Run's goroutine
// — and all scheduling decisions (admission order, placement, resize
// targets, event application) are pure functions of the configuration
// and the round number. A 1-job fleet run is byte-identical to the
// standalone trainer; a K-job run is byte-identical to itself.
package fleet

import (
	"fmt"
	"slices"
)

// Node ownership markers in the lease table.
const (
	nodeFree   = -1
	nodeFailed = -2
)

// leaseTable is the fleet's ground truth for node ownership: every
// node of the shared cluster is free, failed, or leased by exactly one
// tenant. The representation (one owner slot per node) makes double
// leasing structurally impossible; the methods reject every transition
// that would need it — acquiring a non-free node, rejoining a node
// that never failed — so a scheduling bug surfaces as an error, not as
// two tenants pricing the same GPUs. Every write keeps the ascending
// free list, the failed count and a version current, so only snapshot
// scans the owner slots, and only when the version moved.
type leaseTable struct {
	owner       []int // per node: nodeFree, nodeFailed, or owning tenant id
	free        []int // ascending, in an array of len(owner)
	failed      int
	version     uint64    // bumped by every change of an owner slot
	snap        RoundInfo // the table at snapVersion; never written after
	snapVersion uint64
}

// newLeaseTable builds a table of n free nodes.
func newLeaseTable(n int) *leaseTable {
	buf := make([]int, 2*n)
	t := &leaseTable{owner: buf[:n:n], free: buf[n:], version: 1}
	for i := range t.owner {
		t.owner[i], t.free[i] = nodeFree, i
	}
	return t
}

// Free returns the free node indices, ascending: the table's own list,
// capped at its length, read-only and valid until the next write.
func (t *leaseTable) Free() []int { return t.free[:len(t.free):len(t.free)] }

// FreeCount returns how many nodes are free.
func (t *leaseTable) FreeCount() int { return len(t.free) }

// FailedCount returns how many nodes are failed.
func (t *leaseTable) FailedCount() int { return t.failed }

// LeasedCount returns how many nodes are leased across all tenants.
func (t *leaseTable) LeasedCount() int { return len(t.owner) - len(t.free) - t.failed }

// snapshot returns the table as a RoundInfo without its round: free and
// failed nodes, and every tenant holding nodes mapped to them, each
// ascending, the lease lists capped slices of one array. It is rebuilt
// by one scan when the version moved and shared otherwise.
func (t *leaseTable) snapshot() RoundInfo {
	if t.snapVersion == t.version {
		return t.snap
	}
	leased := t.LeasedCount()
	s := RoundInfo{Free: slices.Clone(t.Free()), Failed: make([]int, 0, t.failed), Leases: make(map[int][]int, leased)}
	buf := make([]int, 0, leased)
	for i, o := range t.owner {
		if o == nodeFailed {
			s.Failed = append(s.Failed, i)
		}
		if _, seen := s.Leases[o]; o < 0 || seen {
			continue
		}
		start := len(buf)
		for j := i; j < len(t.owner); j++ {
			if t.owner[j] == o {
				buf = append(buf, j)
			}
		}
		s.Leases[o] = buf[start:len(buf):len(buf)]
	}
	t.snap, t.snapVersion = s, t.version
	return s
}

// freeNode returns node n to the free list, keeping it ascending.
func (t *leaseTable) freeNode(n int) {
	t.owner[n] = nodeFree
	i, _ := slices.BinarySearch(t.free, n)
	t.free = slices.Insert(t.free, i, n) // within len(owner): no growth
	t.version++
}

// Acquire leases the given free nodes to the tenant. It is
// all-or-nothing: any node that is failed, out of range, or owned —
// by anyone, including the tenant itself — rejects the whole call.
// nodes may alias Free's result: they are read before the free list is
// rewritten.
func (t *leaseTable) Acquire(job int, nodes []int) error {
	if job < 0 {
		return fmt.Errorf("fleet: tenant id %d negative", job)
	}
	for _, n := range nodes {
		if n < 0 || n >= len(t.owner) {
			return fmt.Errorf("fleet: node %d outside fleet [0,%d)", n, len(t.owner))
		}
		if t.owner[n] != nodeFree {
			return fmt.Errorf("fleet: node %d not free (owner %d)", n, t.owner[n])
		}
	}
	// Reject duplicates within the request itself.
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if a == b {
				return fmt.Errorf("fleet: node %d requested twice", a)
			}
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	for _, n := range nodes {
		t.owner[n] = job
	}
	t.free = slices.DeleteFunc(t.free, func(n int) bool { return t.owner[n] != nodeFree })
	t.version++
	return nil
}

// ReleaseNodes returns specific nodes of a tenant's lease to the free
// pool. Releasing a node the tenant does not own is an error.
func (t *leaseTable) ReleaseNodes(job int, nodes []int) error {
	for _, n := range nodes {
		if n < 0 || n >= len(t.owner) || t.owner[n] != job {
			return fmt.Errorf("fleet: tenant %d does not own node %d", job, n)
		}
	}
	t.Release(job, nodes)
	return nil
}

// Release frees those of nodes the tenant holds, skipping the rest.
// Given the tenant's lease that is every node it holds: a node leaves
// a lease only through a resize, which frees it, or by failing.
func (t *leaseTable) Release(job int, nodes []int) {
	for _, n := range nodes {
		if n >= 0 && n < len(t.owner) && t.owner[n] == job {
			t.freeNode(n)
		}
	}
}

// Fail marks a node failed and returns its previous owner (nodeFree
// when it was free). Failing an already-failed node is an error — a
// node cannot die twice without rejoining in between.
func (t *leaseTable) Fail(node int) (owner int, err error) {
	if node < 0 || node >= len(t.owner) {
		return 0, fmt.Errorf("fleet: node %d outside fleet [0,%d)", node, len(t.owner))
	}
	if t.owner[node] == nodeFailed {
		return 0, fmt.Errorf("fleet: node %d already failed", node)
	}
	owner = t.owner[node]
	if owner == nodeFree {
		i, _ := slices.BinarySearch(t.free, node)
		t.free = slices.Delete(t.free, i, i+1)
	}
	t.owner[node] = nodeFailed
	t.failed++
	t.version++
	return owner, nil
}

// Join returns a failed node to the free pool. Joining a node that is
// not failed is an error: the node is either already free (a double
// join) or leased (joining it would double-lease its GPUs).
func (t *leaseTable) Join(node int) error {
	if node < 0 || node >= len(t.owner) {
		return fmt.Errorf("fleet: node %d outside fleet [0,%d)", node, len(t.owner))
	}
	if t.owner[node] != nodeFailed {
		return fmt.Errorf("fleet: node %d is not failed (owner %d)", node, t.owner[node])
	}
	t.failed--
	t.freeNode(node)
	return nil
}
