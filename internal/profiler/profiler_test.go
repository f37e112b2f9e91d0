package profiler

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
)

func newProfiler(t *testing.T, m model.MLLM) *Profiler {
	t.Helper()
	p, err := New(DefaultOptions(cluster.Production(12), m))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func calibrated(t *testing.T, m model.MLLM) *Profiler {
	t.Helper()
	p := newProfiler(t, m)
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	opts := DefaultOptions(cluster.Production(1), model.MLLM9B())
	opts.StepCCLOverlap = 1.5
	if _, err := New(opts); err == nil {
		t.Error("overlap > 1 accepted")
	}
	opts = DefaultOptions(cluster.Cluster{}, model.MLLM9B())
	if _, err := New(opts); err == nil {
		t.Error("invalid cluster accepted")
	}
}

// Figure 3's physics: one 8K sequence through one Llama3-70B PP stage
// (PP=10, TP=8) should take on the order of 100ms forward; ViT and SD
// grow with image count and resolution while the LLM does not.
func TestForwardTimeMagnitudes(t *testing.T) {
	m := model.MLLM72B()
	p := calibrated(t, m)

	perStage := p.SampleForward(model.Backbone, 8, model.SampleShape{}) / 10
	if perStage < 0.030 || perStage > 0.300 {
		t.Errorf("70B PP-stage forward = %.1fms, want ~50-150ms", perStage*1e3)
	}

	light := model.SampleShape{ImageTokens: []int{1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024}, GenImages: 8}
	heavy := model.SampleShape{ImageTokens: []int{4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096,
		4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096}, GenImages: 16}

	encLight := p.SampleForward(model.Encoder, 8, light)
	encHeavy := p.SampleForward(model.Encoder, 8, heavy)
	if encHeavy <= 2*encLight {
		t.Errorf("encoder should scale with images+resolution: %.1fms -> %.1fms",
			encLight*1e3, encHeavy*1e3)
	}
	genLight := p.SampleForward(model.Generator, 8, light)
	genHeavy := p.SampleForward(model.Generator, 8, heavy)
	if genHeavy <= 1.5*genLight {
		t.Errorf("generator should scale with generated images: %.1fms -> %.1fms",
			genLight*1e3, genHeavy*1e3)
	}
	// The backbone is flat across input mixes.
	if p.SampleForward(model.Backbone, 8, light) != p.SampleForward(model.Backbone, 8, heavy) {
		t.Error("backbone time must not depend on the modality mix")
	}
}

func TestMoreGPUsAreFaster(t *testing.T) {
	p := calibrated(t, model.MLLM9B())
	s := model.SampleShape{ImageTokens: []int{1024, 1024, 1024, 1024}, GenImages: 2}
	for _, mod := range model.Modules {
		t1 := p.SampleForward(mod, 1, s)
		t8 := p.SampleForward(mod, 8, s)
		if t8 >= t1 {
			t.Errorf("%v: 8 GPUs (%.2fms) not faster than 1 (%.2fms)", mod, t8*1e3, t1*1e3)
		}
	}
}

func TestStepCCLReducesBackboneTime(t *testing.T) {
	m := model.MLLM15B()
	base := DefaultOptions(cluster.Production(4), m)
	base.StepCCLOverlap = 0
	noOverlap, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	withOverlapOpts := base
	withOverlapOpts.StepCCLOverlap = 0.85
	withOverlap, err := New(withOverlapOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := model.SampleShape{}
	slow := noOverlap.SampleForward(model.Backbone, 8, s)
	fast := withOverlap.SampleForward(model.Backbone, 8, s)
	if fast >= slow {
		t.Errorf("StepCCL overlap must reduce TP-exposed time: %.2fms vs %.2fms", fast*1e3, slow*1e3)
	}
	// The gain is in the Figure 22 regime: ~1.05-1.3x at TP=8.
	ratio := slow / fast
	if ratio < 1.02 || ratio > 1.5 {
		t.Errorf("StepCCL speedup = %.3fx, want a Figure-22-like margin", ratio)
	}
}

func TestFreezeReducesTrainTime(t *testing.T) {
	m := model.MLLM9B()
	full := newProfiler(t, m)
	opts := DefaultOptions(cluster.Production(12), m)
	opts.Freeze = model.LLMOnly // encoder fully frozen
	frozen, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := model.SampleShape{ImageTokens: []int{2048, 2048}, GenImages: 1}
	if ft, tt := frozen.SampleTrain(model.Encoder, 4, s), full.SampleTrain(model.Encoder, 4, s); ft >= tt {
		t.Errorf("frozen encoder train time %.2fms !< full %.2fms", ft*1e3, tt*1e3)
	}
	// Forward time is unchanged by freezing.
	if frozen.SampleForward(model.Encoder, 4, s) != full.SampleForward(model.Encoder, 4, s) {
		t.Error("freeze must not change forward time")
	}
}

func TestCalibrate(t *testing.T) {
	p := newProfiler(t, model.MLLM9B())
	if err := p.Calibrate(nil, 0); err == nil {
		t.Error("zero samples accepted")
	}
	corpus, _ := data.NewCorpus(data.LAION400M())
	if err := p.Calibrate(corpus, 100); err != nil {
		t.Fatal(err)
	}
	shape := p.MeanShape()
	if len(shape.ImageTokens) == 0 {
		t.Fatal("calibrated shape has no images")
	}
	if shape.ImageTokens[0] < 64 || shape.ImageTokens[0] > 4096 {
		t.Errorf("mean image tokens %d implausible", shape.ImageTokens[0])
	}
	// C functions become available and ordered: more parallelism, less
	// time.
	if p.CTrain(model.Backbone, 8) >= p.CTrain(model.Backbone, 1) {
		t.Error("C_lm(8) should be below C_lm(1)")
	}
	if p.SampleForward(model.Backbone, 8, shape) >= p.CTrain(model.Backbone, 8) {
		t.Error("fwd-only C must be below fwd+bwd C")
	}
}

func TestBalanceFactor(t *testing.T) {
	if got := balanceFactor(8, 8); got != 1 {
		t.Errorf("8 images on 8 GPUs = %g, want 1", got)
	}
	// 9 images on 8 GPUs: one GPU does 2, others idle half the time.
	if got := balanceFactor(9, 8); math.Abs(got-16.0/9) > 1e-9 {
		t.Errorf("9 on 8 = %g, want 16/9", got)
	}
	if got := balanceFactor(0, 8); got != 1 {
		t.Errorf("no images = %g, want 1", got)
	}
	if got := balanceFactor(5, 1); got != 1 {
		t.Errorf("width 1 = %g, want 1", got)
	}
}

// TestReplicationAvoidsTPComm: the encoder and generator replicate
// across their group (§7.1), so a balanced image count scales perfectly
// — no TP communication, no shard-size efficiency loss — while the
// TP-sharded backbone pays both.
func TestReplicationAvoidsTPComm(t *testing.T) {
	p := newProfiler(t, model.MLLM9B())
	s := model.SampleShape{ImageTokens: []int{1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024}, GenImages: 8}
	for _, mod := range []model.Module{model.Encoder, model.Generator} {
		t1, t8 := p.SampleForward(mod, 1, s), p.SampleForward(mod, 8, s)
		if rel := math.Abs(8*t8-t1) / t1; rel > 1e-12 {
			t.Errorf("%v: 8 replicas take %.4fms, want 1/8 of %.4fms", mod, t8*1e3, t1*1e3)
		}
	}
	if t1, t8 := p.SampleForward(model.Backbone, 1, s), p.SampleForward(model.Backbone, 8, s); 8*t8 <= t1 {
		t.Errorf("TP-8 backbone %.4fms scales perfectly from %.4fms: no TP cost", t8*1e3, t1*1e3)
	}
}

// TestCostCacheConcurrent pins the C-function contract: all concurrent
// queries agree with the evaluation on the mean shape, and after a
// recalibration they track the new mean shape. CTrain sat behind a
// memo table until pricing was compiled (the name dates from then);
// the contract is the same. Run under -race by the CI race gate.
func TestCostCacheConcurrent(t *testing.T) {
	p := calibrated(t, model.MLLM9B())
	type query struct {
		mod   model.Module
		width int
	}
	queries := []query{
		{model.Encoder, 1}, {model.Encoder, 4},
		{model.Backbone, 2}, {model.Backbone, 8},
		{model.Generator, 1}, {model.Generator, 2},
	}
	want := make(map[query]float64)
	for _, q := range queries {
		want[q] = p.SampleTrain(q.mod, q.width, p.MeanShape())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, q := range queries {
					if got := p.CTrain(q.mod, q.width); got != want[q] {
						errs <- fmt.Errorf("CTrain(%v,%d) = %g, want %g", q.mod, q.width, got, want[q])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Recalibrating on far fewer samples shifts the mean shape; the
	// C functions must follow, not serve stale costs.
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 3); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if got, fresh := p.CTrain(q.mod, q.width), p.SampleTrain(q.mod, q.width, p.MeanShape()); got != fresh {
			t.Errorf("stale memo after Calibrate: CTrain(%v,%d) = %g, want %g", q.mod, q.width, got, fresh)
		}
	}
}

// TestCalibrateShapes: the observed-shapes recalibration path (the
// re-planning controller's entry point) agrees exactly with corpus
// calibration over the same samples, rejects empty input, and drops
// memoized costs from the previous profile.
func TestCalibrateShapes(t *testing.T) {
	m := model.MLLM9B()
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	ref := newProfiler(t, m)
	if err := ref.Calibrate(corpus, 150); err != nil {
		t.Fatal(err)
	}
	shapes := make([]model.SampleShape, 150)
	for i := range shapes {
		shapes[i] = corpus.Sample(int64(i)).Shape()
	}
	p := newProfiler(t, m)
	if err := p.CalibrateShapes(shapes); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(p.MeanShape()), fmt.Sprint(ref.MeanShape()); got != want {
		t.Errorf("CalibrateShapes mean %s != Calibrate mean %s", got, want)
	}
	if got, want := p.CTrain(model.Encoder, 2), ref.CTrain(model.Encoder, 2); got != want {
		t.Errorf("CTrain after CalibrateShapes = %g, want %g", got, want)
	}
	if err := p.CalibrateShapes(nil); err == nil {
		t.Error("empty shape set accepted")
	}
	// Recalibration on a heavier distribution must move the memoized
	// costs, not serve the stale profile.
	before := p.CTrain(model.Encoder, 1)
	heavy := make([]model.SampleShape, len(shapes))
	for i, s := range shapes {
		heavy[i] = model.SampleShape{GenImages: s.GenImages}
		for _, tok := range s.ImageTokens {
			heavy[i].ImageTokens = append(heavy[i].ImageTokens, tok*3)
		}
	}
	if err := p.CalibrateShapes(heavy); err != nil {
		t.Fatal(err)
	}
	if after := p.CTrain(model.Encoder, 1); after <= before {
		t.Errorf("3x heavier shapes did not raise the encoder cost: %g vs %g", after, before)
	}
}
