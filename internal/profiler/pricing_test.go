package profiler

import (
	"fmt"
	"math"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
)

var pricingWidths = []int{1, 2, 4, 8}

// pricingModels returns the three presets plus two models whose odd
// dimensions make every product round (ViT-Huge's are powers of two
// times five, so reassociating its attention term is exact): one with
// the bidirectional encoder, one with a causal encoder that carries an
// LM head — the branch no preset's encoder takes.
func pricingModels() []model.MLLM {
	odd := model.MLLM9B()
	odd.Name = "odd-bidirectional"
	odd.Encoder = model.TransformerConfig{Name: "odd-vit", Layers: 27, HiddenSize: 1144, FFNHiddenSize: 4301, Heads: 8, KVGroups: 4}
	odd.GenResolution, odd.SeqLen = 768, 5003
	causal := odd
	causal.Name = "odd-causal"
	causal.Encoder.VocabSize = 1013
	return append(model.Presets(), odd, causal)
}

// pricingGrid builds one profiler per point of the option grid the
// compiled cost model must cover: pricingModels × full training and
// the four frozen settings × StepCCLOverlap 0/0.85 × calibrated (on a
// mean image of 300 tokens) or not.
func pricingGrid(tb testing.TB) []*Profiler {
	tb.Helper()
	var grid []*Profiler
	cl := cluster.Production(4)
	for _, m := range pricingModels() {
		for _, freeze := range append([]model.FreezeSpec{model.FullTraining}, model.FrozenSettings()...) {
			for bits := 0; bits < 4; bits++ {
				opts := DefaultOptions(cl, m)
				opts.Freeze = freeze
				opts.StepCCLOverlap = []float64{0, 0.85}[bits&1]
				p, err := New(opts)
				if err != nil {
					tb.Fatal(err)
				}
				if bits>>1&1 == 1 {
					if err := p.CalibrateShapes([]model.SampleShape{{ImageTokens: []int{300, 300}, GenImages: 1}}); err != nil {
						tb.Fatal(err)
					}
				}
				grid = append(grid, p)
			}
		}
	}
	return grid
}

// checkPricing holds every compiled pricing entry point to the
// reference on one shape, bit for bit. w is the shape's workload as
// the caller folded it (through Fold, or sample by sample).
func checkPricing(t *testing.T, p *Profiler, s model.SampleShape, w model.Workload) {
	t.Helper()
	same := func(got, want float64, what string, args ...any) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s on %+v (%s, %s, overlap=%g calibrated=%v): got %v, reference %v",
				fmt.Sprintf(what, args...), s, p.opts.Model.Name, p.opts.Freeze.Name,
				p.opts.StepCCLOverlap, p.calibrated, got, want)
		}
	}
	for _, mod := range model.Modules {
		wantF, wantB := refModuleTrainFLOPs(p.opts.Model, mod, s, p.opts.Freeze)
		gotF, gotB := p.kernel.TrainFLOPs(mod, w)
		same(gotF, wantF, "%v kernel fwd FLOPs", mod)
		same(gotB, wantB, "%v kernel bwd FLOPs", mod)
		same(p.kernel.Params(mod), refParams(p.opts.Model, mod), "%v params", mod)
		for _, mb := range []int{1, 3} { // as the plan search scales a mean-shape row
			same(p.kernel.ActivationBytes(mod, w)*float64(mb), refActivationBytes(p.opts.Model, mod, s, mb),
				"%v activation bytes at microbatch %d", mod, mb)
		}
		for _, width := range pricingWidths {
			r := p.Resolve(mod, width)
			fwd, train := r.Price(w)
			same(fwd, refSampleForward(p, mod, width, s), "%v width %d forward seconds", mod, width)
			same(train, refSampleTrain(p, mod, width, s), "%v width %d train seconds", mod, width)
			same(p.SampleForward(mod, width, s), fwd, "%v width %d SampleForward", mod, width)
			same(p.SampleTrain(mod, width, s), train, "%v width %d SampleTrain", mod, width)
		}
	}
	same(p.SampleCost(w), refSampleTrain(p, model.Encoder, 1, s)+refSampleTrain(p, model.Generator, 1, s), "SampleCost")
}

// sampleOf wraps a shape's images into a packed sample, text between
// them, the way the corpus interleaves subsequences.
func sampleOf(s model.SampleShape) data.Sample {
	out := data.Sample{GenImages: s.GenImages}
	for _, tokens := range s.ImageTokens {
		out.Subsequences = append(out.Subsequences,
			data.Subsequence{Modality: data.Text, Tokens: 7},
			data.Subsequence{Modality: data.Image, Tokens: tokens})
	}
	return out
}

// FuzzSamplePricing holds the compiled cost model — CostKernel's rows
// (FLOPs, parameters, activation bytes), Rate,
// the SampleForward/SampleTrain wrappers, SampleCost and the
// data.Sample walk — to the formulas it was compiled
// from (pricing_ref_test.go) on byte-driven shapes: b[0] picks 0-12
// images and 0-4 generated images, then two bytes per image give a
// signed 16-bit token count (zero, negative and > 4096 included).
// Every shape is priced on the whole option grid at widths 1, 2, 4, 8.
func FuzzSamplePricing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10})                                     // no images, one generated
	f.Add([]byte{0x01, 0x04, 0x00})                         // one 1024-token image
	f.Add([]byte{0x23, 0x00, 0x00, 0xff, 0xf0, 0x10, 0x01}) // zero, negative, 4097
	f.Add([]byte{0x45, 0x00, 0x10, 0x01, 0x00, 0x0f, 0xff, 0x7f, 0xff, 0x00, 0x40})
	f.Add([]byte{0x3c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	grid := pricingGrid(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var s model.SampleShape
		if len(b) > 0 {
			s.GenImages = int(b[0]>>4) % 5
			n := int(b[0]&0x0f) % 13
			for i := 0; i < n && 2+2*i < len(b); i++ {
				s.ImageTokens = append(s.ImageTokens, int(int16(uint16(b[1+2*i])<<8|uint16(b[2+2*i]))))
			}
		}
		for _, p := range grid {
			w := p.kernel.Fold(s)
			var walked model.Workload
			sampleOf(s).AddTo(&walked, &p.kernel)
			if walked != w {
				t.Fatalf("Sample.AddTo folded %+v to %+v, Fold to %+v", s, walked, w)
			}
			checkPricing(t, p, s, w)
		}
	})
}

// TestAggregatedMicrobatchPricing: an M = 3 microbatch folded sample by
// sample prices bit-equal to the reference on the concatenated shape —
// the image-by-image accumulation order an aggregated shape had.
func TestAggregatedMicrobatchPricing(t *testing.T) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	grid := pricingGrid(t)
	for _, first := range []int64{0, 3, 40, 1000} {
		var concat model.SampleShape
		samples := corpus.AppendBatch(nil, first, 3)
		for _, s := range samples {
			concat.ImageTokens = append(concat.ImageTokens, s.ImageTokenSizes()...)
			concat.GenImages += s.GenImages
		}
		for _, p := range grid {
			var w model.Workload
			for _, s := range samples {
				s.AddTo(&w, p.Kernel())
			}
			checkPricing(t, p, concat, w)
		}
	}
}

// TestCalibrateShapesAfterQueries is the staleness check on what the
// profiler compiles: queries before a recalibration leave nothing
// behind, so afterwards CTrain — which reads the calibrated mean shape
// — SampleTrain and SampleCost answer exactly what a profiler built on
// the new calibration answers.
func TestCalibrateShapesAfterQueries(t *testing.T) {
	opts := DefaultOptions(cluster.Production(4), model.MLLM9B())
	s := model.SampleShape{ImageTokens: []int{256, 1024, 64}, GenImages: 2}
	build := func(calib ...[]model.SampleShape) *Profiler {
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shapes := range calib {
			p.SampleTrain(model.Encoder, 8, s) // a query before every calibration
			p.SampleCost(p.Kernel().Fold(s))
			p.CTrain(model.Encoder, 8)
			if err := p.CalibrateShapes(shapes); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	small := []model.SampleShape{{ImageTokens: []int{100, 100}, GenImages: 1}}
	large := []model.SampleShape{{ImageTokens: []int{4000, 4000}, GenImages: 1}}
	recal, fresh := build(small, large), build(large)
	got, want := recal.SampleTrain(model.Encoder, 8, s), fresh.SampleTrain(model.Encoder, 8, s)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("recalibrated SampleTrain(Encoder, 8) = %v, a fresh profiler's = %v", got, want)
	}
	if want := refSampleTrain(recal, model.Encoder, 8, s); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("recalibrated SampleTrain(Encoder, 8) = %v, the reference on its calibration = %v", got, want)
	}
	if before, after := build(small).CTrain(model.Encoder, 8), recal.CTrain(model.Encoder, 8); before == after {
		t.Errorf("CTrain(Encoder, 8) = %v on mean images of 100 and of 4000 tokens: calibration not read", after)
	}
	w := recal.Kernel().Fold(s)
	if got, want := recal.SampleCost(w), fresh.SampleCost(w); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("recalibrated SampleCost = %v, a fresh profiler's = %v", got, want)
	}
	if got, want := recal.CTrain(model.Encoder, 8), fresh.CTrain(model.Encoder, 8); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("recalibrated CTrain(Encoder, 8) = %v, a fresh profiler's = %v", got, want)
	}
}
