// Package fleet is the multi-tenant runtime: it admits a stream of
// training jobs, places them on a shared cluster.Cluster through an
// explicit lease table, elastically grows and shrinks their GPU
// leases as tenants come and go (reusing the trainer's costed
// checkpoint-reconfigure path), and shares one fingerprint-keyed plan
// cache so identical tenants pay for a single §4.3 search. DistTrain
// runs on a production cluster that serves a stream of jobs (§7);
// this package makes the repo's single-job runtime that cluster.
//
// Determinism is the contract, exactly as everywhere else in the
// repo: the fleet advances in rounds — every running job executes one
// training iteration per round, fanned out over a bounded worker pool
// with per-tenant result slots — and all scheduling decisions
// (admission order, placement, resize targets, event application) are
// pure functions of the configuration and the round number. A 1-job
// fleet run is byte-identical to the standalone trainer; a K-job run
// is byte-identical to itself at any worker count.
package fleet

import "fmt"

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
// two tenants pricing the same GPUs.
type leaseTable struct {
	owner []int // per node: nodeFree, nodeFailed, or owning tenant id
}

// newLeaseTable builds a table of n free nodes.
func newLeaseTable(n int) *leaseTable {
	t := &leaseTable{owner: make([]int, n)}
	for i := range t.owner {
		t.owner[i] = nodeFree
	}
	return t
}

// Nodes returns the table size.
func (t *leaseTable) Nodes() int { return len(t.owner) }

// Free returns the free node indices, ascending.
func (t *leaseTable) Free() []int {
	var out []int
	for i, o := range t.owner {
		if o == nodeFree {
			out = append(out, i)
		}
	}
	return out
}

// Failed returns the failed node indices, ascending.
func (t *leaseTable) Failed() []int {
	var out []int
	for i, o := range t.owner {
		if o == nodeFailed {
			out = append(out, i)
		}
	}
	return out
}

// FreeCount returns how many nodes are free.
func (t *leaseTable) FreeCount() int {
	n := 0
	for _, o := range t.owner {
		if o == nodeFree {
			n++
		}
	}
	return n
}

// LeasedCount returns how many nodes are leased across all tenants.
func (t *leaseTable) LeasedCount() int {
	n := 0
	for _, o := range t.owner {
		if o >= 0 {
			n++
		}
	}
	return n
}

// LeasedBy returns the nodes tenant job holds, ascending.
func (t *leaseTable) LeasedBy(job int) []int {
	var out []int
	for i, o := range t.owner {
		if o == job {
			out = append(out, i)
		}
	}
	return out
}

// Acquire leases the given free nodes to the tenant. It is
// all-or-nothing: any node that is failed, out of range, or owned —
// by anyone, including the tenant itself — rejects the whole call.
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
	for _, n := range nodes {
		t.owner[n] = job
	}
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
	for _, n := range nodes {
		t.owner[n] = nodeFree
	}
	return nil
}

// Release frees every node the tenant holds and returns them.
func (t *leaseTable) Release(job int) []int {
	var out []int
	for i, o := range t.owner {
		if o == job {
			t.owner[i] = nodeFree
			out = append(out, i)
		}
	}
	return out
}

// ownerOf returns the node's owner slot (nodeFree, nodeFailed, or a
// tenant id); out-of-range nodes read as failed.
func (t *leaseTable) ownerOf(node int) int {
	if node < 0 || node >= len(t.owner) {
		return nodeFailed
	}
	return t.owner[node]
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
	t.owner[node] = nodeFailed
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
	t.owner[node] = nodeFree
	return nil
}

// Check verifies the table's conservation law: free + failed + leased
// counts partition the fleet. With the owner-slot representation this
// cannot fail; it exists so invariant tests state the property they
// rely on.
func (t *leaseTable) Check() error {
	if got := t.FreeCount() + len(t.Failed()) + t.LeasedCount(); got != len(t.owner) {
		return fmt.Errorf("fleet: node states sum to %d, fleet has %d", got, len(t.owner))
	}
	return nil
}
