// Package cluster models the production GPU cluster DistTrain runs on:
// nodes of eight NVLink-connected accelerators joined by a rail-optimised
// RDMA fabric (4x200 gbps RoCEv2 per node), as described in §7 of the
// paper. The package answers the two questions every other layer asks:
// how fast is a link between two ranks, and how much compute/memory does
// a device have.
package cluster

import "errors"

// Well-known unit multipliers. The simulation uses bytes and bytes/second
// throughout; FLOP rates are FLOP/second.
const (
	giB = 1 << 30

	// gbps converts gigabits per second to bytes per second.
	gbps = 1e9 / 8
)

// GPUSpec describes a single accelerator SKU. Peak numbers follow the
// mixed-precision (bf16) tensor-core rate, which is what MFU is measured
// against in the paper.
type GPUSpec struct {
	Name string
	// PeakFLOPS is the dense bf16 peak in FLOP/s.
	PeakFLOPS float64
	// MemoryBytes is HBM capacity.
	MemoryBytes float64
	// MemoryBWBytes is HBM bandwidth in bytes/s, used to lower-bound
	// memory-bound phases (optimizer step, layernorm tails).
	MemoryBWBytes float64
}

// ampereSXM is the paper's production accelerator ("NVIDIA Ampere
// GPUs", A100-SXM-class).
var ampereSXM = GPUSpec{
	Name:          "ampere-sxm-80g",
	PeakFLOPS:     312e12,
	MemoryBytes:   80 * giB,
	MemoryBWBytes: 2.0e12,
}

// Cluster is an immutable description of the training fleet.
type Cluster struct {
	// Nodes is the number of 8-GPU servers.
	Nodes int
	// GPUsPerNode is fixed at 8 in production but configurable for tests.
	GPUsPerNode int
	// GPU is the accelerator SKU installed in every node.
	GPU GPUSpec
	// NVLinkBps is the bidirectional intra-node NVLink bandwidth in
	// bytes/s shared by collectives inside one node (300 GB/s in §7).
	NVLinkBps float64
	// InterNodeBps is the per-node RDMA bandwidth in bytes/s
	// (4 x 200 gbps RoCEv2 in §7).
	InterNodeBps float64
	// RailOptimized reports whether the RDMA fabric is rail-optimised:
	// rank i of every node shares a rail, so cross-node collectives
	// between same-index GPUs see the full per-NIC bandwidth without
	// incast contention.
	RailOptimized bool
	// LinkLatency is the per-message latency in seconds charged on every
	// collective step or point-to-point transfer (covers kernel launch
	// plus network propagation).
	LinkLatency float64
}

// Production returns the evaluation cluster of the paper: n nodes of
// eight Ampere GPUs, 300 GB/s NVLink, 4x200 gbps RoCEv2, rail-optimised.
func Production(nodes int) Cluster {
	return Cluster{
		Nodes:         nodes,
		GPUsPerNode:   8,
		GPU:           ampereSXM,
		NVLinkBps:     300e9,
		InterNodeBps:  4 * 200 * gbps,
		RailOptimized: true,
		LinkLatency:   8e-6,
	}
}

// Validate reports whether the cluster description is self-consistent.
func (c Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return errors.New("cluster: Nodes must be positive")
	case c.GPUsPerNode <= 0:
		return errors.New("cluster: GPUsPerNode must be positive")
	case c.GPU.PeakFLOPS <= 0:
		return errors.New("cluster: GPU.PeakFLOPS must be positive")
	case c.GPU.MemoryBytes <= 0:
		return errors.New("cluster: GPU.MemoryBytes must be positive")
	case c.NVLinkBps <= 0 || c.InterNodeBps <= 0:
		return errors.New("cluster: link bandwidths must be positive")
	}
	return nil
}

// TotalGPUs returns the number of accelerators in the fleet.
func (c Cluster) TotalGPUs() int { return c.Nodes * c.GPUsPerNode }

// GroupBandwidth returns the effective per-GPU collective bandwidth in
// bytes/s for a communication group of the given size, assuming the
// group is packed onto consecutive ranks (the placement every plan in
// this repository uses). Groups within one node ride NVLink; larger
// groups are limited by the per-node RDMA attachment divided across the
// node's participating GPUs.
func (c Cluster) GroupBandwidth(groupSize int) float64 {
	if groupSize <= 1 {
		return c.NVLinkBps
	}
	if groupSize <= c.GPUsPerNode {
		return c.NVLinkBps
	}
	// Cross-node group: each node contributes InterNodeBps shared by the
	// GPUsPerNode local participants. Rail optimisation keeps the full
	// NIC bandwidth usable; a non-rail fabric loses half to incast.
	per := c.InterNodeBps / float64(c.GPUsPerNode)
	if !c.RailOptimized {
		per /= 2
	}
	return per
}

// CrossNodeBandwidthPerGPU is the RDMA bandwidth available to one GPU
// when all eight GPUs of a node stream simultaneously (the data-parallel
// gradient synchronisation pattern).
func (c Cluster) CrossNodeBandwidthPerGPU() float64 {
	per := c.InterNodeBps / float64(c.GPUsPerNode)
	if !c.RailOptimized {
		per /= 2
	}
	return per
}
