// Package parallel models the distributed-training parallelism
// strategies of the paper: tensor (TP), pipeline (PP), data (DP) and
// virtual-pipeline (VPP) parallelism, plus the sequence (SP) extension
// of §4.1. A Config is one module's strategy: every module of a
// disaggregated plan owns its own.
package parallel

import "fmt"

// Config is a parallelism strategy for one module.
type Config struct {
	// TP is tensor-parallel size; confined to {1,2,4,8} on 8-GPU nodes
	// (§4.3).
	TP int
	// PP is pipeline-parallel size (number of stages in this unit).
	PP int
	// DP is data-parallel size.
	DP int
	// VPP is virtual-pipeline (interleaved 1F1B) size; 1 disables it.
	VPP int
	// SP enables sequence parallelism inside the unit (§4.1): the
	// sequence dimension is split across the TP group; it changes
	// communication shape, not GPU count.
	SP bool
}

// Plain returns a minimal configuration with the given sizes and no
// VPP/SP extensions.
func Plain(tp, pp, dp int) Config { return Config{TP: tp, PP: pp, DP: dp, VPP: 1} }

// GPUs returns the GPU count the configuration occupies.
func (c Config) GPUs() int { return c.TP * c.PP * c.DP }

// ModelParallelWidth returns the within-layer parallel degree, TP:
// the width every per-layer cost divides by (§4.1).
func (c Config) ModelParallelWidth() int { return c.TP }

func (c Config) String() string {
	s := fmt.Sprintf("TP=%d PP=%d DP=%d", c.TP, c.PP, c.DP)
	if c.VPP > 1 {
		s += fmt.Sprintf(" VPP=%d", c.VPP)
	}
	if c.SP {
		s += " SP"
	}
	return s
}

// TPSizes enumerates the tensor-parallel sizes considered by the
// adaptive orchestration algorithm on a node of the given size (§4.3:
// "[1, 2, 4, 8] on an NVIDIA GPU node with 8 GPUs").
func TPSizes(gpusPerNode int) []int {
	var out []int
	for tp := 1; tp <= gpusPerNode; tp *= 2 {
		out = append(out, tp)
	}
	return out
}
