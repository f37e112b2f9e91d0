// Preprocessing: runs the real disaggregated preprocessing service —
// a TCP producer doing decode/resize/pack work with reordering — and a
// prefetching training consumer, then compares the training-side stall
// against co-located preprocessing (the Figure 17 experiment).
//
//	go run ./examples/preprocessing
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"disttrain/internal/data"
	"disttrain/internal/preprocess"
)

func main() {
	// One laptop plays the paper's elastic CPU-node fleet, so shrink
	// image resolutions to keep the producer ahead of a ~300ms training
	// cadence; the distributions stay LAION-shaped.
	spec := data.LAION400M()
	spec.MaxResolution = 256
	spec.ResMedian = 140
	corpus, err := data.NewCorpus(spec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := preprocess.Config{
		Source:         corpus,
		GlobalBatch:    8,
		DPSize:         2,
		Microbatch:     1,
		Reorder:        true,
		PipelineStages: 4,
		Workers:        8,
		Readahead:      2,
	}

	// Producer: dedicated "CPU node" on a loopback TCP socket.
	fleet, err := preprocess.StartFleet(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	addr := fleet.Addrs()[0]
	fmt.Printf("producer listening on %s\n\n", addr)

	// Consumer: DP rank 0's training process with a prefetcher.
	client, err := preprocess.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	pf := preprocess.NewPrefetcher(client, cfg.DPSize, 2)
	defer pf.Close()

	fmt.Println("disaggregated mode (producer works ahead):")
	for iter := 0; iter < 4; iter++ {
		start := time.Now()
		rb, err := pf.Next(ctx)
		if err != nil {
			log.Fatal(err)
		}
		stall := time.Since(start)
		tokens := 0
		for _, mb := range rb.Microbatches {
			for _, p := range mb {
				tokens += int(p.ImageTokens + p.TextTokens)
			}
		}
		fmt.Printf("  iter %d: %d microbatches, %6d tokens, stall %10v\n",
			rb.Iter, len(rb.Microbatches), tokens, stall.Round(time.Microsecond))
		time.Sleep(300 * time.Millisecond) // the GPU compute window
	}

	// Baseline: the same pixel pipeline co-located with training.
	col, err := preprocess.NewColocated(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nco-located mode (training blocks on preprocessing):")
	for iter := int64(10); iter < 12; iter++ {
		start := time.Now()
		if _, err := col.Fetch(ctx, iter); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iter %d: stall %v\n", iter, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\nthe gap between the two stall columns is Figure 17.")
}
