package trainer

import "disttrain/internal/data"

// gradientAccumulator demonstrates the convergence-semantics argument
// of §5: both reordering levels only permute the order in which
// per-sample gradients enter the gradient-accumulation sum, and
// summation is commutative, so the global gradient of an iteration is
// unchanged. The accumulator computes a deterministic pseudo-gradient
// per sample and folds it with exact wrap-around int64 vector
// addition, where permutation invariance holds bit-for-bit.
type gradientAccumulator struct {
	Dim int
}

// SampleGradient derives the deterministic pseudo-gradient of one
// sample from its identity and shape. The derivation mixes the sample
// index through a splitmix64 round per dimension so distinct samples
// contribute distinct, uncorrelated vectors.
func (g gradientAccumulator) SampleGradient(s data.Sample) []int64 {
	out := make([]int64, g.Dim)
	seed := uint64(s.Index)*0x9e3779b97f4a7c15 + uint64(s.TotalImageTokens())
	for k := range out {
		z := seed + uint64(k+1)*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[k] = int64(z)
	}
	return out
}

// AccumulateInt folds the samples' gradients in the given order with
// exact wrap-around addition. Any permutation of samples yields an
// identical result.
func (g gradientAccumulator) AccumulateInt(samples []data.Sample) []int64 {
	acc := make([]int64, g.Dim)
	for _, s := range samples {
		grad := g.SampleGradient(s)
		for k := range acc {
			acc[k] += grad[k] // wrap-around: associative and commutative
		}
	}
	return acc
}
