package data

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width binned density over integer observations,
// used to regenerate the Figure 5 characterisation plots.
type Histogram struct {
	BinWidth  int
	Counts    []int
	Total     int
	sumValues float64
}

// The Figure 5 plots' geometry: every histogram has histBins bins from
// 0, and Render draws bars up to renderWidth characters long.
const (
	histBins    = 32
	renderWidth = 50
)

// newHistogram builds a histogram over [0, max], max > 0.
func newHistogram(max int) *Histogram {
	return &Histogram{BinWidth: (max + histBins - 1) / histBins, Counts: make([]int, histBins)}
}

// Add records one observation; out-of-range values clamp to the edge
// bins.
func (h *Histogram) Add(v int) {
	bin := v / h.BinWidth
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.Total++
	h.sumValues += float64(v)
}

// Density returns the per-bin probability mass.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}

// Mean returns the sample mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return h.sumValues / float64(h.Total)
}

// Mode returns the midpoint of the fullest bin.
func (h *Histogram) Mode() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best*h.BinWidth + h.BinWidth/2
}

// Render draws a horizontal ASCII density plot.
func (h *Histogram) Render(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, mean=%.1f)\n", label, h.Total, h.Mean())
	dens := h.Density()
	maxD := 0.0
	for _, d := range dens {
		maxD = math.Max(maxD, d)
	}
	for i, d := range dens {
		lo := i * h.BinWidth
		n := 0
		if maxD > 0 {
			n = int(d / maxD * renderWidth)
		}
		fmt.Fprintf(&b, "%6d | %-*s %.4f\n", lo, renderWidth, strings.Repeat("#", n), d)
	}
	return b.String()
}

// skewness returns the standardised third moment computed from raw
// values (used to verify the "highly skewed" claim of §2.3).
func skewness(values []int) float64 {
	n := float64(len(values))
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range values {
		mean += float64(v)
	}
	mean /= n
	var m2, m3 float64
	for _, v := range values {
		d := float64(v) - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Characterization aggregates the three Figure 5 distributions over a
// corpus prefix.
type Characterization struct {
	TextSizes   *Histogram // Fig. 5(a)
	ImageSizes  *Histogram // Fig. 5(b)
	ImageCounts *Histogram // Fig. 5(c)

	textRaw, imageRaw, countRaw []int
}

// Characterize scans n samples of the corpus and builds the Figure 5
// histograms.
func Characterize(c *Corpus, n int) *Characterization {
	ch := &Characterization{
		TextSizes:   newHistogram(128),
		ImageSizes:  newHistogram(4096),
		ImageCounts: newHistogram(32),
	}
	for i := 0; i < n; i++ {
		s := c.Sample(int64(i))
		for _, ss := range s.Subsequences {
			switch ss.Modality {
			case Text:
				ch.TextSizes.Add(ss.Tokens)
				ch.textRaw = append(ch.textRaw, ss.Tokens)
			case Image:
				ch.ImageSizes.Add(ss.Tokens)
				ch.imageRaw = append(ch.imageRaw, ss.Tokens)
			}
		}
		ch.ImageCounts.Add(s.NumImages())
		ch.countRaw = append(ch.countRaw, s.NumImages())
	}
	return ch
}

// TextSkewness, ImageSkewness and CountSkewness expose the raw
// skewness of each distribution.
func (ch *Characterization) TextSkewness() float64  { return skewness(ch.textRaw) }
func (ch *Characterization) ImageSkewness() float64 { return skewness(ch.imageRaw) }
func (ch *Characterization) CountSkewness() float64 { return skewness(ch.countRaw) }
