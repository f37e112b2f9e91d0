package main

import (
	"math"
	"sort"
)

// blocks is how many equal parts the timed section is cut into. Every
// timing metric is the median of the per-block values: a single slow
// block (GC, a noisy neighbour) then moves nothing, where a mean or a
// whole-run rate would carry it.
const blocks = 5

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// percentile returns the p-th percentile (0 < p < 100) by the
// nearest-rank rule: the smallest value with at least p% of the
// samples at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one outlier's story.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile that still has
// at least tailBeyond samples above it, and its value; (0, 0) when the
// sample is too small for any tail beyond the median.
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= tailBeyond {
			return float64(p), percentile(xs, float64(p))
		}
	}
	return 0, 0
}

// blockBounds cuts n ops into blocks equal parts: block b covers ops
// [bounds[b], bounds[b+1]). The remainder is spread over the first
// blocks, so sizes differ by at most one.
func blockBounds(n int) [blocks + 1]int {
	var out [blocks + 1]int
	for b := 0; b <= blocks; b++ {
		out[b] = b * n / blocks
	}
	return out
}

// blockMedian applies the block-median rule to per-op values: the
// median of each block's median.
func blockMedian(perOp []float64) float64 {
	return median(blockValues(perOp, median))
}

// blockValues reduces each block of per-op values with f.
func blockValues(perOp []float64, f func([]float64) float64) []float64 {
	bounds := blockBounds(len(perOp))
	var out []float64
	for b := 0; b < blocks; b++ {
		if part := perOp[bounds[b]:bounds[b+1]]; len(part) > 0 {
			out = append(out, f(part))
		}
	}
	return out
}

// spread is (max-min)/median of the values, 0 when undefined.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the driver holds each end-to-end metric to.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(m)
}
