package data

// The CPU cost of multimodal data preprocessing — decompression,
// resizing and reordering (§2.3: "preprocessing such samples can take
// several seconds"). The trainer charges it on the training nodes when
// preprocessing is co-located (the monolithic baseline) and on
// dedicated CPU nodes when disaggregated. The rates match the
// production observation that a ten-image 1024^2 sample takes seconds
// of CPU time.
const (
	// secondsPerMegapixel is decode+resize CPU time per million source
	// pixels on one core: ten 1024x1024 images cost a few seconds on one
	// core, matching the §2.3 example.
	secondsPerMegapixel = 0.28
	// secondsPerTextKToken is tokenisation cost per thousand text tokens
	// (tiny; text is kilobytes).
	secondsPerTextKToken = 0.002
	// PreprocessCores is the effective CPU parallelism available for
	// preprocessing on a node.
	PreprocessCores = 16
)

// SampleCPUSeconds returns single-core CPU seconds to preprocess one
// sample.
func SampleCPUSeconds(s Sample) float64 {
	pixels := 0.0
	for _, ss := range s.Subsequences {
		if ss.Modality == Image {
			pixels += float64(ss.Resolution) * float64(ss.Resolution)
		}
	}
	t := pixels / 1e6 * secondsPerMegapixel
	t += float64(s.TextTokens()) / 1000 * secondsPerTextKToken
	return t
}

// NodeStallSeconds returns the wall-clock stall a training node incurs
// preprocessing the given samples inline on its PreprocessCores cores
// (the co-located baseline of Figure 17).
func NodeStallSeconds(samples []Sample) float64 {
	total := 0.0
	for _, s := range samples {
		total += SampleCPUSeconds(s)
	}
	return total / PreprocessCores
}
