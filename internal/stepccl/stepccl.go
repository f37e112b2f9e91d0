// Package stepccl reproduces StepCCL (Appendix A.1): the in-house
// collective library that overlaps tensor-parallel communication with
// computation by driving transfers through the DMA engine, leaving the
// SMs free for GEMM. It provides
//
//   - the exact overlap timeline model (Figure 20): a GEMM and its
//     all-gather are decomposed into chunk pairs; each chunk's GEMM
//     starts once its slice of data has arrived, so all but the first
//     transfer hides behind compute;
//   - in its tests, a real concurrent executor that performs the
//     chunked all-gather+GEMM with goroutines and verifies bit-identical
//     results after the layout remap of Figure 21 (chunked arrival
//     leaves the output in piece-major order; the remap restores
//     rank-major). No program runs it, so it is test code.
package stepccl

import "math"

// chunks is how many chunk pairs the timeline model splits a GEMM and
// its all-gather into: the production count Figure 22 runs at.
const chunks = 8

// strawman returns the unoverlapped time: the full all-gather followed
// by the full GEMM (Figure 20a).
func strawman(gemm, comm float64) float64 { return gemm + comm }

// overlapped returns the chunked-overlap time of Figure 20(b): the
// communication stream issues chunk transfers back to back while the
// compute stream runs each chunk's GEMM as soon as its input lands.
func overlapped(gemm, comm float64) float64 {
	g := gemm / chunks
	c := comm / chunks
	commDone := 0.0
	computeDone := 0.0
	for i := 0; i < chunks; i++ {
		commDone += c
		computeDone = math.Max(computeDone, commDone) + g
	}
	return computeDone
}

// HiddenFraction returns the share of communication the overlap hides:
// (strawman - overlapped) / comm. Figure 22 reports it. The profiler's
// StepCCLOverlap does not come from it: that is a hand-set 0.85
// (profiler.DefaultOptions), which nothing derives yet.
func HiddenFraction(gemm, comm float64) float64 {
	if comm <= 0 {
		return 1
	}
	saved := strawman(gemm, comm) - overlapped(gemm, comm)
	return clamp01(saved / comm)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
