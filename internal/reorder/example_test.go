package reorder_test

import (
	"fmt"
	"math/rand"

	"disttrain/internal/pipeline"
	"disttrain/internal/reorder"
)

// Example shows both stragglers of §2.3 and how the two algorithms
// mitigate them: Algorithm 2 orders one DP rank's microbatches so the
// data-heterogeneous encoder and generator stages fill the 1F1B
// intervals (Figures 7 and 12), and Algorithm 1 balances sample load
// across DP groups (Figures 6 and 11).
func Example() {
	rng := rand.New(rand.NewSource(42))
	const stages, l = 4, 10
	mbs := make([]reorder.Microbatch, l)
	for i := range mbs {
		fwd := make([]float64, stages)
		bwd := make([]float64, stages)
		for s := range fwd {
			fwd[s] = 1.0 // LLM stages: fixed-length sequences
			if s == 0 || s == stages-1 {
				fwd[s] = 0.3 + 1.4*rng.Float64() // encoder / generator
			}
			bwd[s] = 2 * fwd[s]
		}
		mbs[i] = reorder.Microbatch{Index: i, Fwd: fwd, Bwd: bwd}
	}
	simulate := func(mbs []reorder.Microbatch) *pipeline.Result {
		w := pipeline.Work{Fwd: make([][]float64, stages), Bwd: make([][]float64, stages)}
		for s := range w.Fwd {
			for _, mb := range mbs {
				w.Fwd[s] = append(w.Fwd[s], mb.Fwd[s])
				w.Bwd[s] = append(w.Bwd[s], mb.Bwd[s])
			}
		}
		res, err := pipeline.Simulate(pipeline.OneFOneB, w)
		if err != nil {
			panic(err)
		}
		return res
	}
	ordered, err := reorder.InterReorder(mbs, nil)
	if err != nil {
		panic(err)
	}
	before, after := simulate(mbs), simulate(ordered)
	fmt.Printf("Algorithm 2: iteration %.2f -> %.2f, mean bubble %.1f%% -> %.1f%%\n",
		before.IterTime, after.IterTime, 100*before.MeanBubbleFraction(), 100*after.MeanBubbleFraction())

	rng = rand.New(rand.NewSource(7))
	sizes := make([]float64, 16)
	for i := range sizes {
		sizes[i] = 0.2 + 3*rng.Float64()*rng.Float64()
	}
	const dp = 4
	maxLoad := func(groups [][]int) float64 {
		worst := 0.0
		for _, g := range groups {
			load := 0.0
			for _, i := range g {
				load += sizes[i]
			}
			worst = max(worst, load)
		}
		return worst
	}
	blocks := make([][]int, dp) // DP rank d takes the d-th contiguous block
	for i := range sizes {
		d := i * dp / len(sizes)
		blocks[d] = append(blocks[d], i)
	}
	var p reorder.Partitioner
	groups, err := p.Partition(sizes, dp)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Algorithm 1: straggler load %.2f -> %.2f\n", maxLoad(blocks), maxLoad(groups))
	// Output:
	// Algorithm 2: iteration 43.22 -> 42.20, mean bubble 31.0% -> 29.4%
	// Algorithm 1: straggler load 4.57 -> 3.32
}
