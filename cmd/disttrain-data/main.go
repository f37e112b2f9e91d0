// Command disttrain-data characterises the synthetic multimodal corpus
// (the Figure 5 analysis) and reports preprocessing cost statistics.
//
// Example:
//
//	disttrain-data -samples 20000 -histograms
package main

import (
	"flag"
	"fmt"
	"os"

	"disttrain/internal/data"
)

func main() {
	var (
		samples    = flag.Int("samples", 10000, "samples to characterise")
		histograms = flag.Bool("histograms", false, "render full ASCII histograms (Figure 5)")
		seed       = flag.Int64("seed", 0, "override corpus seed (0 = default)")
	)
	flag.Parse()
	if *samples < 1 {
		fmt.Fprintln(os.Stderr, "disttrain-data: -samples must be at least 1")
		os.Exit(1)
	}

	spec := data.LAION400M()
	if *seed != 0 {
		spec.Seed = *seed
	}
	corpus, err := data.NewCorpus(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "disttrain-data:", err)
		os.Exit(1)
	}
	ch := data.Characterize(corpus, *samples)

	fmt.Printf("corpus characterisation over %d samples (seed %#x)\n\n", *samples, spec.Seed)
	fmt.Printf("  text subsequence size:   mean %6.1f tokens, skewness %+.2f\n",
		ch.TextSizes.Mean(), ch.TextSkewness())
	fmt.Printf("  image subsequence size:  mean %6.1f tokens, skewness %+.2f\n",
		ch.ImageSizes.Mean(), ch.ImageSkewness())
	fmt.Printf("  image subseqs per sample: mean %5.1f, skewness %+.2f\n\n",
		ch.ImageCounts.Mean(), ch.CountSkewness())

	var heavy, light data.Sample
	heavySeen := 0.0
	for i := 0; i < min(*samples, 1000); i++ {
		s := corpus.Sample(int64(i))
		if c := data.SampleCPUSeconds(s); c > heavySeen {
			heavySeen, heavy = c, s
		}
		if light.SeqLen == 0 || data.SampleCPUSeconds(s) < data.SampleCPUSeconds(light) {
			light = s
		}
	}
	fmt.Printf("preprocessing cost model (%d-core nodes):\n", data.PreprocessCores)
	fmt.Printf("  heaviest sample: %d images, %.1f MB pixels -> %.2fs CPU\n",
		heavy.NumImages(), float64(heavy.PixelBytes())/(1<<20), data.SampleCPUSeconds(heavy))
	fmt.Printf("  lightest sample: %d images, %.1f MB pixels -> %.3fs CPU\n\n",
		light.NumImages(), float64(light.PixelBytes())/(1<<20), data.SampleCPUSeconds(light))

	if *histograms {
		fmt.Println(ch.TextSizes.Render("Fig 5(a): text subsequence size (tokens)"))
		fmt.Println(ch.ImageSizes.Render("Fig 5(b): image subsequence size (tokens)"))
		fmt.Println(ch.ImageCounts.Render("Fig 5(c): image subsequences per sample"))
	}
}
