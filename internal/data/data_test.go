package data

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"disttrain/internal/model"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := NewCorpus(LAION400M())
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	return c
}

func TestSpecValidate(t *testing.T) {
	good := LAION400M()
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.SeqLen = 0 },
		func(s *Spec) { s.TextSigma = -1 },
		func(s *Spec) { s.ResMedian = 0 },
		func(s *Spec) { s.MinResolution = 4 },
		func(s *Spec) { s.MaxResolution = 32 },
		func(s *Spec) { s.GenImageFraction = 1.5 },
		func(s *Spec) { s.MaxImages = 0 },
	}
	for i, mutate := range bad {
		s := LAION400M()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad spec", i)
		}
	}
}

func TestSamplesPackExactly(t *testing.T) {
	c := testCorpus(t)
	for i := int64(0); i < 500; i++ {
		s := c.Sample(i)
		total := 0
		for _, ss := range s.Subsequences {
			if ss.Tokens <= 0 {
				t.Fatalf("sample %d has empty subsequence", i)
			}
			total += ss.Tokens
		}
		if total != c.Spec().SeqLen {
			t.Fatalf("sample %d packs %d tokens, want %d", i, total, c.Spec().SeqLen)
		}
		if s.TextTokens()+s.TotalImageTokens() != c.Spec().SeqLen {
			t.Fatalf("sample %d modality split inconsistent", i)
		}
	}
}

func TestSamplesDeterministic(t *testing.T) {
	c1 := testCorpus(t)
	c2 := testCorpus(t)
	for i := int64(0); i < 100; i++ {
		a, b := c1.Sample(i), c2.Sample(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %d not deterministic", i)
		}
	}
	// A different seed must change the corpus.
	spec := LAION400M()
	spec.Seed++
	c3, _ := NewCorpus(spec)
	same := 0
	for i := int64(0); i < 100; i++ {
		if reflect.DeepEqual(c1.Sample(i), c3.Sample(i)) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/100 identical samples", same)
	}
}

// Figure 5: all three distributions must be right-skewed with the
// paper's supports.
func TestFigure5Distributions(t *testing.T) {
	c := testCorpus(t)
	ch := Characterize(c, 2000)

	if sk := ch.TextSkewness(); sk < 0.8 {
		t.Errorf("text subsequence skewness = %.2f, want strongly right-skewed", sk)
	}
	if sk := ch.ImageSkewness(); sk < 0.8 {
		t.Errorf("image subsequence skewness = %.2f, want strongly right-skewed", sk)
	}
	if sk := ch.CountSkewness(); sk < 0.3 {
		t.Errorf("image count skewness = %.2f, want right-skewed", sk)
	}

	// Supports match the Figure 5 axes.
	if m := ch.TextSizes.Mean(); m < 8 || m > 64 {
		t.Errorf("text subsequence mean %.1f outside plausible Fig 5(a) range", m)
	}
	if m := ch.ImageSizes.Mean(); m < 256 || m > 2048 {
		t.Errorf("image subsequence mean %.1f outside plausible Fig 5(b) range", m)
	}
	if m := ch.ImageCounts.Mean(); m < 2 || m > 16 {
		t.Errorf("images per sample mean %.1f outside plausible Fig 5(c) range", m)
	}
}

func TestImageTokensAreValidPatchCounts(t *testing.T) {
	c := testCorpus(t)
	for i := int64(0); i < 300; i++ {
		for _, ss := range c.Sample(i).Subsequences {
			if ss.Modality != Image {
				continue
			}
			if ss.Resolution%model.PatchSize != 0 {
				t.Fatalf("sample %d: resolution %d not on patch grid", i, ss.Resolution)
			}
			if got := model.ImageTokens(ss.Resolution); got != ss.Tokens {
				t.Fatalf("sample %d: tokens %d != ImageTokens(%d)=%d", i, ss.Tokens, ss.Resolution, got)
			}
			if ss.Tokens > 4096 {
				t.Fatalf("image subsequence exceeds Fig 5(b) support: %d", ss.Tokens)
			}
		}
	}
}

func TestGenImagesBounded(t *testing.T) {
	c := testCorpus(t)
	sawGen := false
	for i := int64(0); i < 500; i++ {
		s := c.Sample(i)
		if s.GenImages > s.NumImages() {
			t.Fatalf("sample %d: GenImages %d > NumImages %d", i, s.GenImages, s.NumImages())
		}
		if s.GenImages > 0 {
			sawGen = true
		}
	}
	if !sawGen {
		t.Error("no sample had generation targets; generator would be idle")
	}
}

func TestPixelBytesScale(t *testing.T) {
	// §2.3: text is kilobytes, images are megabytes.
	c := testCorpus(t)
	var withImages int64
	for i := int64(0); i < 100; i++ {
		s := c.Sample(i)
		if s.NumImages() >= 4 {
			withImages = s.PixelBytes()
			break
		}
	}
	if withImages < 1<<20 {
		t.Errorf("multi-image sample payload = %d bytes, want megabytes", withImages)
	}
}

func TestBatchAndGlobalBatch(t *testing.T) {
	c := testCorpus(t)
	head := []Sample{c.Sample(0)}
	b := c.AppendBatch(head, 10, 5)
	if len(b) != 6 || b[0].Index != 0 {
		t.Fatalf("AppendBatch returned %d samples, first %d", len(b), b[0].Index)
	}
	for i, s := range b[1:] {
		if s.Index != int64(10+i) {
			t.Errorf("batch sample %d has index %d", i, s.Index)
		}
	}
	g := c.GlobalBatch(3, 4) // samples 12..15
	if g[0].Index != 12 || g[3].Index != 15 {
		t.Errorf("GlobalBatch indices wrong: %d..%d", g[0].Index, g[3].Index)
	}
	if !reflect.DeepEqual(c.Sample(12), g[0]) {
		t.Error("GlobalBatch sample differs from direct Sample")
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram(128) // 32 bins of width 4
	for i := 0; i < 128; i++ {
		h.Add(i)
	}
	dens := h.Density()
	for i, d := range dens {
		if math.Abs(d-1.0/histBins) > 1e-9 {
			t.Fatalf("bin %d density %g, want 1/%d", i, d, histBins)
		}
	}
	if h.Mean() != 63.5 {
		t.Errorf("Mean = %g, want 63.5", h.Mean())
	}
	// Clamping.
	h.Add(-5)
	h.Add(500)
	if h.Counts[0] != 5 || h.Counts[histBins-1] != 5 {
		t.Errorf("edge bins = %d,%d, want 5,5", h.Counts[0], h.Counts[histBins-1])
	}
	if out := h.Render("test"); len(out) == 0 {
		t.Error("Render produced nothing")
	}
}

func TestSkewnessSigns(t *testing.T) {
	rightSkewed := []int{1, 1, 1, 2, 2, 3, 10, 50}
	if skewness(rightSkewed) <= 0 {
		t.Error("right-skewed data should have positive skewness")
	}
	symmetric := []int{1, 2, 3, 4, 5, 6, 7}
	if math.Abs(skewness(symmetric)) > 0.01 {
		t.Error("symmetric data should have ~zero skewness")
	}
	if skewness([]int{5}) != 0 || skewness(nil) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

// Property: every sample, at any index, packs exactly SeqLen tokens and
// respects the image cap.
func TestSampleInvariants(t *testing.T) {
	c := testCorpus(t)
	f := func(idx int64) bool {
		if idx < 0 {
			idx = -idx
		}
		s := c.Sample(idx)
		total := 0
		for _, ss := range s.Subsequences {
			total += ss.Tokens
		}
		return total == c.Spec().SeqLen &&
			s.NumImages() <= c.Spec().MaxImages &&
			s.GenImages <= s.NumImages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
