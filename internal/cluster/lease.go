package cluster

import (
	"fmt"
	"sort"
)

// Lease is a job's explicit, resizable claim on cluster capacity: the
// set of whole nodes it owns on a shared fleet. The multi-tenant fleet
// runtime (internal/fleet) grants, grows and shrinks leases; the
// trainer prices a leased run against the lease's subcluster instead
// of implicitly owning the whole Cluster. Node granularity matches the
// paper's production scheduler: GPUs are allocated in units of 8-GPU
// servers (§7).
type Lease struct {
	// Nodes are the leased node indices on the shared cluster, sorted
	// ascending. A Lease never shares a node with another Lease.
	Nodes []int
}

// NewLease returns a normalised lease over the given nodes (sorted,
// defensive copy).
func NewLease(nodes ...int) Lease {
	out := append([]int(nil), nodes...)
	sort.Ints(out)
	return Lease{Nodes: out}
}

// NodeCount returns the number of leased nodes.
func (l Lease) NodeCount() int { return len(l.Nodes) }

// GPUs returns the leased accelerator count on the given base cluster.
func (l Lease) GPUs(base Cluster) int { return len(l.Nodes) * base.GPUsPerNode }

// Contains reports whether the lease holds the given node.
func (l Lease) Contains(node int) bool {
	i := sort.SearchInts(l.Nodes, node)
	return i < len(l.Nodes) && l.Nodes[i] == node
}

// Without returns a copy of the lease with the given node removed (a
// no-op copy when the lease does not hold it).
func (l Lease) Without(node int) Lease {
	out := make([]int, 0, len(l.Nodes))
	for _, n := range l.Nodes {
		if n != node {
			out = append(out, n)
		}
	}
	return Lease{Nodes: out}
}

// Validate checks the lease against its base cluster: nodes must be
// distinct, in range, and the lease non-empty.
func (l Lease) Validate(base Cluster) error {
	if len(l.Nodes) == 0 {
		return fmt.Errorf("cluster: empty lease")
	}
	prev := -1
	for _, n := range l.Nodes {
		if n < 0 || n >= base.Nodes {
			return fmt.Errorf("cluster: leased node %d outside fleet [0,%d)", n, base.Nodes)
		}
		if n == prev {
			return fmt.Errorf("cluster: node %d leased twice", n)
		}
		if n < prev {
			return fmt.Errorf("cluster: lease nodes not sorted")
		}
		prev = n
	}
	return nil
}

// Subcluster carves the lease's private view out of the shared
// cluster: same hardware (SKU, NVLink, RDMA fabric, latency), scoped
// to the leased node count. Every per-GPU quantity of the cost model
// (GroupBandwidth, CrossNodeBandwidthPerGPU) is
// identical, so a job running on an n-node lease prices exactly like a
// standalone run on an n-node cluster — the equivalence the fleet
// runtime's 1-job byte-identity test pins.
func (l Lease) Subcluster(base Cluster) Cluster {
	sub := base
	sub.Nodes = len(l.Nodes)
	return sub
}

// Run is a maximal stretch of consecutive leased nodes.
type Run struct {
	// First is the lowest node index of the run; Count its length.
	First, Count int
}

// Runs decomposes the lease into maximal runs of consecutive node
// indices, ascending. A packed lease has one run; every extra run is
// a fragment boundary crossing the fabric.
func (l Lease) Runs() []Run {
	var runs []Run
	for _, n := range l.Nodes {
		if len(runs) > 0 && runs[len(runs)-1].First+runs[len(runs)-1].Count == n {
			runs[len(runs)-1].Count++
			continue
		}
		runs = append(runs, Run{First: n, Count: 1})
	}
	return runs
}

// Shape renders the lease's canonical placement shape: run lengths
// sorted descending, joined by "+" — "8" for a packed 8-node lease,
// "4+2+2" for a fragmented one; "" for an empty lease. Two leases
// with equal shapes price identically, which is what placement-aware
// plan-cache fingerprints key on.
func (l Lease) Shape() string {
	runs := l.Runs()
	lens := make([]int, len(runs))
	for i, r := range runs {
		lens[i] = r.Count
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	s := ""
	for i, n := range lens {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%d", n)
	}
	return s
}

// Placed carves the lease's placement-priced view out of the shared
// cluster: like Subcluster, but a fragmented lease (more than one
// run) loses rail alignment — its cross-node collectives hop between
// non-adjacent servers, off the rail-optimised paths — and pays the
// non-rail fabric. Placement-scoring fleet schedulers price leases
// through Placed; count-based policies keep Subcluster so equal node
// counts price identically wherever they land.
func (l Lease) Placed(base Cluster) Cluster {
	sub := l.Subcluster(base)
	if len(l.Runs()) > 1 {
		sub.RailOptimized = false
	}
	return sub
}

func (l Lease) String() string {
	return fmt.Sprintf("lease%v", l.Nodes)
}
