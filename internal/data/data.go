// Package data synthesises the multimodal training corpus DistTrain is
// evaluated on. The paper uses LAION-400M: image-text pairs tokenized
// (Llama tokenizer for text, 16x16 patches for images) and interleaved
// into fixed 8192-token training sequences (§2.3, §7). The dataset
// itself is not redistributable, so this package generates a
// deterministic synthetic corpus whose three characterising
// distributions match Figure 5:
//
//	(a) text subsequence sizes   — highly skewed, bulk under ~64 tokens
//	(b) image subsequence sizes  — skewed over [16, 4096] tokens
//	(c) image subsequences/sample — skewed over [1, 32]
//
// Every sample is generated independently from its index, so any
// worker can materialise any slice of the corpus without coordination —
// the property the disaggregated preprocessing producers rely on.
package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"disttrain/internal/model"
	"disttrain/internal/window"
)

// Subsequence is one modality-contiguous run of tokens inside a packed
// training sequence.
type Subsequence struct {
	Modality Modality
	// Tokens is the subsequence length in modality tokens.
	Tokens int
	// Resolution is the source image edge in pixels (images only).
	Resolution int
}

// Modality tags a subsequence.
type Modality int

const (
	// Text tokens from the Llama tokenizer.
	Text Modality = iota
	// Image tokens from 16x16 patches.
	Image
)

func (m Modality) String() string {
	if m == Text {
		return "text"
	}
	return "image"
}

// Sample is one packed training sample: interleaved text and image
// subsequences totalling exactly the configured sequence length, plus
// the generation targets for the modality generator.
type Sample struct {
	// Index is the sample's position in the corpus; samples are
	// reproducible from their index alone.
	Index int64
	// Subsequences in interleaved order.
	Subsequences []Subsequence
	// GenImages is the number of images the generator trains on.
	GenImages int
	// SeqLen is the packed length (all subsequences sum to this).
	SeqLen int
}

// TextTokens returns the total text token count.
func (s Sample) TextTokens() int {
	t := 0
	for _, ss := range s.Subsequences {
		if ss.Modality == Text {
			t += ss.Tokens
		}
	}
	return t
}

// ImageTokenSizes returns the token count of each image subsequence in
// order.
func (s Sample) ImageTokenSizes() []int {
	var sizes []int
	for _, ss := range s.Subsequences {
		if ss.Modality == Image {
			sizes = append(sizes, ss.Tokens)
		}
	}
	return sizes
}

// AddTo folds the sample's modality mix into w through a compiled cost
// kernel, walking the image subsequences in order: the workload of
// Shape() (of the concatenated shapes, accumulated over a microbatch).
func (s Sample) AddTo(w *model.Workload, k *model.CostKernel) {
	for i := range s.Subsequences {
		if ss := &s.Subsequences[i]; ss.Modality == Image {
			k.AddImage(w, ss.Tokens)
		}
	}
	w.GenImages += s.GenImages
}

// NumImages returns the image subsequence count.
func (s Sample) NumImages() int {
	n := 0
	for _, ss := range s.Subsequences {
		if ss.Modality == Image {
			n++
		}
	}
	return n
}

// TotalImageTokens sums image subsequence sizes.
func (s Sample) TotalImageTokens() int {
	t := 0
	for _, ss := range s.Subsequences {
		if ss.Modality == Image {
			t += ss.Tokens
		}
	}
	return t
}

// Shape converts the sample into the model package's workload
// characterisation.
func (s Sample) Shape() model.SampleShape {
	return model.SampleShape{ImageTokens: s.ImageTokenSizes(), GenImages: s.GenImages}
}

// PixelBytes returns the decoded RGB payload size of all source images,
// the quantity that makes multimodal samples megabytes while their text
// is kilobytes (§2.3).
func (s Sample) PixelBytes() int64 {
	var b int64
	for _, ss := range s.Subsequences {
		if ss.Modality == Image {
			b += int64(ss.Resolution) * int64(ss.Resolution) * 3
		}
	}
	return b
}

// Spec parameterises the synthetic corpus.
type Spec struct {
	// Seed namespaces the whole corpus; two corpora with equal specs are
	// identical.
	Seed int64
	// SeqLen is the packed training sequence length (8192 in the paper).
	SeqLen int
	// TextMedian/TextSigma shape the log-normal text subsequence size.
	TextMedian float64
	TextSigma  float64
	// MaxTextTokens truncates text subsequences (Fig. 5a x-axis: 128).
	MaxTextTokens int
	// ResMedian/ResSigma shape the log-normal source image edge.
	ResMedian float64
	ResSigma  float64
	// MinResolution/MaxResolution clamp image edges; tokens then span
	// [ (Min/16)^2, (Max/16)^2 ] = [16, 4096] with the defaults.
	MinResolution, MaxResolution int
	// GenImageFraction is the probability that an interleaved image is
	// also a generation target.
	GenImageFraction float64
	// MaxImages caps image subsequences per sample (Fig. 5c x-axis: 32).
	MaxImages int
}

// LAION400M returns the corpus specification calibrated to reproduce
// the Figure 5 distributions.
func LAION400M() Spec {
	return Spec{
		Seed:             0x1a104,
		SeqLen:           8192,
		TextMedian:       18,
		TextSigma:        1.05,
		MaxTextTokens:    128,
		ResMedian:        420,
		ResSigma:         0.55,
		MinResolution:    64,
		MaxResolution:    1024,
		GenImageFraction: 0.25,
		MaxImages:        32,
	}
}

// Validate reports whether the spec is usable.
func (sp Spec) Validate() error {
	switch {
	case sp.SeqLen <= 0:
		return fmt.Errorf("data: SeqLen %d must be positive", sp.SeqLen)
	case sp.TextMedian <= 0 || sp.TextSigma <= 0:
		return fmt.Errorf("data: text distribution parameters must be positive")
	case sp.ResMedian <= 0 || sp.ResSigma <= 0:
		return fmt.Errorf("data: resolution distribution parameters must be positive")
	case sp.MinResolution < model.PatchSize || sp.MaxResolution < sp.MinResolution:
		return fmt.Errorf("data: bad resolution bounds [%d,%d]", sp.MinResolution, sp.MaxResolution)
	case sp.GenImageFraction < 0 || sp.GenImageFraction > 1:
		return fmt.Errorf("data: GenImageFraction %g outside [0,1]", sp.GenImageFraction)
	case sp.MaxImages <= 0:
		return fmt.Errorf("data: MaxImages must be positive")
	}
	return nil
}

// Corpus is a deterministic, indexable synthetic dataset. Sample
// results are memoized because the same indices are requested over and
// over (prefetch, calibration, many fleet tenants sharing one corpus):
// a re-read shares one materialisation, its draws and its subsequence
// slice, instead of rebuilding them. The memo is bounded and safe for
// concurrent use.
type Corpus struct {
	spec Spec

	mu   sync.RWMutex
	memo window.Window[int64, Sample] // a sample weighs 1
}

// memoGeneration bounds one memo generation in samples, so the memo
// holds between one and two of them (~1.5 KB a LAION sample, ~6 MB)
// however many distinct indices a run streams through: a preprocessing
// producer reads each index once and must not grow by what it has
// read. The shared re-read windows callers have size it — fleet tenants
// sharing a corpus re-read the same 128 samples within an op,
// calibration the first 300, a trainer rewind at most checkpoint
// interval x global batch; beyond the bound a re-read regenerates the
// same sample, at the cost of its few dozen draws (NewRand seeds in
// closed form).
const memoGeneration = 2048

// NewCorpus builds a corpus from a validated spec.
func NewCorpus(spec Spec) (*Corpus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Corpus{spec: spec, memo: window.New[int64, Sample](memoGeneration)}, nil
}

// Spec returns the corpus specification.
func (c *Corpus) Spec() Spec { return c.spec }

// sampleSeed derives the seed of one sample index's generator.
func (c *Corpus) sampleSeed(index int64) int64 {
	// splitmix64-style scramble so consecutive indices decorrelate.
	z := uint64(index) + uint64(c.spec.Seed)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// logNormal draws from a log-normal with the given median and sigma.
func logNormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(sigma*rng.NormFloat64())
}

// Sample materialises the sample at the given index, serving repeats
// from the memo. Callers share the returned sample's Subsequences
// slice and must treat it as immutable (scenario shifts copy before
// mutating).
func (c *Corpus) Sample(index int64) Sample {
	c.mu.RLock()
	s, ok := c.memo.Get(index)
	c.mu.RUnlock()
	if ok {
		return s
	}
	s = c.generate(index, NewRand(c.sampleSeed(index)))
	c.mu.Lock()
	c.memo.Put(index, s, 1)
	c.mu.Unlock()
	return s
}

// subsScratch lends generate a list to grow a sample's subsequences
// in, so the sample itself allocates one exact-size copy.
var subsScratch = sync.Pool{New: func() any { return new([]Subsequence) }}

// generate materialises the sample at the given index from scratch,
// drawing from rng, the generator seeded with sampleSeed(index). The
// construction interleaves text and image subsequences until the fixed
// sequence length is reached, mirroring §2.3's packing of modality
// subsequences into fixed-length training sequences.
func (c *Corpus) generate(index int64, rng *rand.Rand) Sample {
	sp := c.spec
	s := Sample{Index: index, SeqLen: sp.SeqLen}
	remaining := sp.SeqLen
	scratch := subsScratch.Get().(*[]Subsequence)
	subs := (*scratch)[:0]

	drawText := func() int {
		t := int(logNormal(rng, sp.TextMedian, sp.TextSigma)) + 1
		if t > sp.MaxTextTokens {
			t = sp.MaxTextTokens
		}
		if t > remaining {
			t = remaining
		}
		return t
	}
	appendText := func(tokens int) {
		// Merge adjacent text runs only when the draw was clipped to a
		// sliver; otherwise keep distinct subsequences, matching the
		// per-subsequence statistics of Fig. 5(a).
		subs = append(subs, Subsequence{Modality: Text, Tokens: tokens})
		remaining -= tokens
	}
	fillTailWithText := func() {
		for remaining > 0 {
			appendText(drawText())
		}
	}

	images := 0
	for remaining > 0 {
		appendText(drawText())
		if remaining == 0 {
			break
		}
		if images >= sp.MaxImages {
			fillTailWithText()
			break
		}
		// Image subsequence: draw a source resolution, snap to the patch
		// grid, convert to tokens.
		res := int(logNormal(rng, sp.ResMedian, sp.ResSigma))
		if res < sp.MinResolution {
			res = sp.MinResolution
		}
		if res > sp.MaxResolution {
			res = sp.MaxResolution
		}
		res -= res % model.PatchSize
		tokens := model.ImageTokens(res)
		if tokens > remaining {
			// The image does not fit; finish the sequence with text.
			fillTailWithText()
			break
		}
		subs = append(subs, Subsequence{Modality: Image, Tokens: tokens, Resolution: res})
		images++
		remaining -= tokens
		if rng.Float64() < sp.GenImageFraction {
			s.GenImages++
		}
	}
	s.Subsequences = slices.Clone(subs)
	*scratch = subs
	subsScratch.Put(scratch)
	return s
}

// AppendBatch appends the n consecutive samples starting at first to
// dst and returns the extended slice.
func (c *Corpus) AppendBatch(dst []Sample, first int64, n int) []Sample {
	dst = slices.Grow(dst, n)
	for i := range n {
		dst = append(dst, c.Sample(first+int64(i)))
	}
	return dst
}

// GlobalBatch returns the samples of global batch g under batch size bs.
func (c *Corpus) GlobalBatch(g int64, bs int) []Sample {
	return c.AppendBatch(nil, g*int64(bs), bs)
}
