// Package comm provides the analytic cost models for the collectives
// that dominate distributed training: ring all-gather and
// reduce-scatter, and point-to-point pipeline transfers.
package comm

// CollectiveCost parameterises the ring-collective model: per-message
// latency and the per-GPU link bandwidth the ring runs over.
type CollectiveCost struct {
	// BandwidthBps is the per-GPU bandwidth of the slowest link on the
	// ring, in bytes/s.
	BandwidthBps float64
	// Latency is the per-step message latency in seconds.
	Latency float64
}

// AllGather returns ring all-gather time: (n-1)/n of the full volume
// per link in n-1 steps. bytes is the full gathered size.
func (c CollectiveCost) AllGather(bytes float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	f := float64(n-1) / float64(n)
	return f*bytes/c.BandwidthBps + float64(n-1)*c.Latency
}

// ReduceScatter mirrors AllGather's cost.
func (c CollectiveCost) ReduceScatter(bytes float64, n int) float64 {
	return c.AllGather(bytes, n)
}

// P2P returns the time to move bytes point-to-point.
func (c CollectiveCost) P2P(bytes float64) float64 {
	return bytes/c.BandwidthBps + c.Latency
}

// TPOverheadPerLayer returns the exposed tensor-parallel communication
// time for one transformer layer over one microbatch under sequence
// parallelism (§4.1): the two all-reduces of classic TP (attention out,
// MLP out) become all-gather + reduce-scatter pairs of the same total
// volume, in forward.
//
// activationBytes is seq*hidden*2 (bf16) for the microbatch.
// overlapFraction is how much of the communication StepCCL hides
// (Appendix A.1); 0 means fully exposed.
func TPOverheadPerLayer(c CollectiveCost, activationBytes float64, tp int, overlapFraction float64) float64 {
	if tp <= 1 {
		return 0
	}
	// 2x (AG + RS) per layer: the volume of the two all-reduces, twice
	// their latency count.
	t := 2 * (c.AllGather(activationBytes, tp) + c.ReduceScatter(activationBytes, tp))
	exposed := 1 - overlapFraction
	if exposed < 0 {
		exposed = 0
	}
	return t * exposed
}

// ZeRO1GradSync returns the gradient synchronisation time per iteration
// for a module with the given trainable parameter count replicated
// across dp ranks: a reduce-scatter of bf16 gradients plus an
// all-gather of updated bf16 parameters (ZeRO-1 shards optimizer state,
// so each rank updates 1/dp of the weights).
func ZeRO1GradSync(c CollectiveCost, params float64, dp int) float64 {
	if dp <= 1 {
		return 0
	}
	gradBytes := params * 2
	paramBytes := params * 2
	return c.ReduceScatter(gradBytes, dp) + c.AllGather(paramBytes, dp)
}
