// Reordering: visualises the data-heterogeneity stragglers of §2.3 and
// how Algorithms 1 and 2 mitigate them — the mechanics behind Figures
// 6, 7, 11 and 12, rendered as ASCII pipeline timelines.
//
//	go run ./examples/reordering
package main

import (
	"fmt"
	"log"
	"math/rand"

	"disttrain/internal/pipeline"
	"disttrain/internal/reorder"
)

func main() {
	interMicrobatch()
	intraMicrobatch()
}

// interMicrobatch shows one DP rank's pipeline: encoder, two LLM
// stages, generator; microbatch encoder times vary with the data.
func interMicrobatch() {
	fmt.Println("=== Inter-microbatch stragglers (Figure 7) and Algorithm 2 (Figure 12)")
	rng := rand.New(rand.NewSource(42))
	const stages, l = 4, 10
	mbs := make([]reorder.Microbatch, l)
	for i := range mbs {
		fwd := make([]float64, stages)
		bwd := make([]float64, stages)
		for s := 0; s < stages; s++ {
			switch s {
			case 0, stages - 1: // encoder / generator: data-heterogeneous
				fwd[s] = 0.3 + 1.4*rng.Float64()
			default: // LLM: fixed-length sequences, constant time
				fwd[s] = 1.0
			}
			bwd[s] = 2 * fwd[s]
		}
		mbs[i] = reorder.Microbatch{Index: i, Fwd: fwd, Bwd: bwd}
	}

	before := simulate(mbs)
	fmt.Printf("\n-- corpus order (iteration %.2f, mean bubble %.1f%%):\n%s",
		before.IterTime, 100*before.MeanBubbleFraction(), before.Gantt())

	ordered, err := reorder.InterReorder(mbs, nil)
	if err != nil {
		log.Fatal(err)
	}
	after := simulate(ordered)
	fmt.Printf("\n-- Algorithm 2 order (iteration %.2f, mean bubble %.1f%%):\n%s",
		after.IterTime, 100*after.MeanBubbleFraction(), after.Gantt())
	fmt.Printf("\nreordering speedup: %.3fx\n\n", before.IterTime/after.IterTime)

	ivs, err := after.FirstStageIntervals()
	if err == nil {
		fmt.Println("first-stage intervals after reordering (Figure 12):")
		for _, iv := range ivs {
			fmt.Printf("  interval %2d: volume %.2f, filled %.2f, unfilled %.2f\n",
				iv.Index, iv.Volume(), iv.Filled, iv.Unfilled)
		}
	}
	fmt.Println()
}

// intraMicrobatch shows Algorithm 1 balancing sample load across DP
// groups (Figures 6 and 11).
func intraMicrobatch() {
	fmt.Println("=== Intra-microbatch stragglers (Figure 6) and Algorithm 1 (Figure 11)")
	rng := rand.New(rand.NewSource(7))
	type sample struct {
		id   int
		size float64
	}
	samples := make([]sample, 16)
	for i := range samples {
		samples[i] = sample{id: i, size: 0.2 + 3*rng.Float64()*rng.Float64()}
	}
	size := func(s sample) float64 { return s.size }

	const dp = 4
	naiveLoad := make([]float64, dp)
	per := len(samples) / dp
	for d := 0; d < dp; d++ {
		for _, s := range samples[d*per : (d+1)*per] {
			naiveLoad[d] += s.size
		}
	}
	_, groups, err := reorder.IntraReorder(samples, size, dp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-24s %-24s\n", "DP rank", "block assignment", "Algorithm 1 (LPT)")
	worstNaive, worstLPT := 0.0, 0.0
	for d := 0; d < dp; d++ {
		lpt := 0.0
		for _, s := range groups[d] {
			lpt += s.size
		}
		fmt.Printf("DP%-7d load %-19.2f load %-19.2f\n", d+1, naiveLoad[d], lpt)
		worstNaive = max(worstNaive, naiveLoad[d])
		worstLPT = max(worstLPT, lpt)
	}
	fmt.Printf("\nstraggler (max load): %.2f -> %.2f  (%.3fx better)\n",
		worstNaive, worstLPT, worstNaive/worstLPT)
}

func simulate(mbs []reorder.Microbatch) *pipeline.Result {
	stages := len(mbs[0].Fwd)
	w := pipeline.Work{Fwd: make([][]float64, stages), Bwd: make([][]float64, stages)}
	for s := 0; s < stages; s++ {
		w.Fwd[s] = make([]float64, len(mbs))
		w.Bwd[s] = make([]float64, len(mbs))
		for j, mb := range mbs {
			w.Fwd[s][j] = mb.Fwd[s]
			w.Bwd[s][j] = mb.Bwd[s]
		}
	}
	res, err := pipeline.Simulate(pipeline.OneFOneB, w)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
