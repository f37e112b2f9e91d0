package data

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width binned density over integer observations,
// used to regenerate the Figure 5 characterisation plots.
type Histogram struct {
	Min, Max  int
	BinWidth  int
	Counts    []int
	Total     int
	sumValues float64
}

// NewHistogram builds a histogram over [min, max] with the given number
// of bins.
func NewHistogram(min, max, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic(fmt.Sprintf("data: bad histogram bounds [%d,%d] bins=%d", min, max, bins))
	}
	width := (max - min + bins - 1) / bins
	if width == 0 {
		width = 1
	}
	return &Histogram{Min: min, Max: max, BinWidth: width, Counts: make([]int, bins)}
}

// Add records one observation; out-of-range values clamp to the edge
// bins.
func (h *Histogram) Add(v int) {
	bin := (v - h.Min) / h.BinWidth
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
	return h.Min + best*h.BinWidth + h.BinWidth/2
}

// Render draws a horizontal ASCII density plot with the given bar width.
func (h *Histogram) Render(label string, barWidth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, mean=%.1f)\n", label, h.Total, h.Mean())
	dens := h.Density()
	maxD := 0.0
	for _, d := range dens {
		maxD = math.Max(maxD, d)
	}
	for i, d := range dens {
		lo := h.Min + i*h.BinWidth
		n := 0
		if maxD > 0 {
			n = int(d / maxD * float64(barWidth))
		}
		fmt.Fprintf(&b, "%6d | %-*s %.4f\n", lo, barWidth, strings.Repeat("#", n), d)
	}
	return b.String()
}

// Skewness returns the standardised third moment computed from raw
// values (used to verify the "highly skewed" claim of §2.3).
func Skewness(values []int) float64 {
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
		TextSizes:   NewHistogram(0, 128, 32),
		ImageSizes:  NewHistogram(0, 4096, 32),
		ImageCounts: NewHistogram(0, 32, 32),
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
func (ch *Characterization) TextSkewness() float64  { return Skewness(ch.textRaw) }
func (ch *Characterization) ImageSkewness() float64 { return Skewness(ch.imageRaw) }
func (ch *Characterization) CountSkewness() float64 { return Skewness(ch.countRaw) }
