package model

import (
	"math"
	"testing"
	"testing/quick"
)

// Table 2 of the paper: backbone configurations must match exactly.
func TestTable2Configs(t *testing.T) {
	cases := []struct {
		cfg                                TransformerConfig
		layers, hidden, ffn, heads, groups int
	}{
		{Llama3_7B, 32, 4096, 11008, 32, 32},
		{Llama3_13B, 40, 5120, 13824, 40, 40},
		{Llama3_70B, 80, 8192, 28672, 64, 8},
	}
	for _, c := range cases {
		if c.cfg.Layers != c.layers || c.cfg.HiddenSize != c.hidden ||
			c.cfg.FFNHiddenSize != c.ffn || c.cfg.Heads != c.heads || c.cfg.KVGroups != c.groups {
			t.Errorf("%s config mismatch with Table 2: %+v", c.cfg.Name, c.cfg)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", c.cfg.Name, err)
		}
	}
}

// TestNameLookups resolves every model and freeze preset by its CLI
// name and refuses unknown names.
func TestNameLookups(t *testing.T) {
	for name, want := range map[string]string{
		"9b": "MLLM-9B", "15B": "MLLM-15B", "72b": "MLLM-72B",
		"mllm-9b": "MLLM-9B", "MLLM-15B": "MLLM-15B", "Mllm-72b": "MLLM-72B",
	} {
		if m, err := ByName(name); err != nil || m.Name != want {
			t.Errorf("ByName(%q) = %s, %v, want %s", name, m.Name, err, want)
		}
	}
	for _, name := range []string{"7b", "mllm-", "", "9b "} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
	if _, err := ByName("7b"); err == nil || err.Error() != `unknown model "7b" (want 9b, 15b or 72b)` {
		t.Errorf("ByName(7b) error = %v", err)
	}
	for _, want := range append([]FreezeSpec{FullTraining}, FrozenSettings()...) {
		if f, err := FreezeByName(want.Name); err != nil || f != want {
			t.Errorf("FreezeByName(%q) = %+v, %v", want.Name, f, err)
		}
	}
	for _, name := range []string{"nope", "Full", ""} {
		if _, err := FreezeByName(name); err == nil {
			t.Errorf("FreezeByName(%q) accepted", name)
		}
	}
}

// Parameter counts must land near the nominal model sizes.
func TestParamCounts(t *testing.T) {
	cases := []struct {
		name   string
		got    float64
		wantB  float64 // billions
		within float64 // relative tolerance
	}{
		{"Llama3-7B", Llama3_7B.Params(), 7, 0.10},
		{"Llama3-13B", Llama3_13B.Params(), 13, 0.10},
		{"Llama3-70B", Llama3_70B.Params(), 70, 0.05},
		{"ViT-Huge", vitHuge.Params(), 0.63, 0.05},
		{"SD-2.1", sd21.Params(), 1.0, 0.35}, // paper rounds the 0.87B UNet to "1B"
	}
	for _, c := range cases {
		gotB := c.got / 1e9
		if math.Abs(gotB-c.wantB)/c.wantB > c.within {
			t.Errorf("%s params = %.2fB, want within %.0f%% of %.2fB",
				c.name, gotB, c.within*100, c.wantB)
		}
	}
}

func TestMLLMTotals(t *testing.T) {
	cases := []struct {
		m     MLLM
		wantB float64
	}{
		{MLLM9B(), 9},
		{MLLM15B(), 15},
		{MLLM72B(), 72},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err != nil {
			t.Fatalf("%s: %v", c.m.Name, err)
		}
		gotB := 0.0 // the "9B" in MLLM-9B: every module's parameters
		for _, mod := range Modules {
			gotB += c.m.Params(mod) / 1e9
		}
		if math.Abs(gotB-c.wantB)/c.wantB > 0.20 {
			t.Errorf("%s = %.2fB params, want ~%.0fB", c.m.Name, gotB, c.wantB)
		}
	}
}

func TestValidateCatchesBadTransformer(t *testing.T) {
	bad := Llama3_7B
	bad.Heads = 33 // not divisible by KVGroups
	bad.KVGroups = 32
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted indivisible head grouping")
	}
	bad2 := Llama3_7B
	bad2.Layers = 0
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted zero layers")
	}
}

func TestImageTokens(t *testing.T) {
	// §2.3: 16x16 patches. 512^2 -> 1024 tokens; 1024^2 -> 4096 tokens
	// (matches the Fig. 5(b) x-axis reaching 4096).
	if got := ImageTokens(512); got != 1024 {
		t.Errorf("ImageTokens(512) = %d, want 1024", got)
	}
	if got := ImageTokens(1024); got != 4096 {
		t.Errorf("ImageTokens(1024) = %d, want 4096", got)
	}
}

// The heart of Figure 3: backbone cost per sequence is constant across
// modality mixes, encoder/generator costs scale with images and
// resolution.
func TestFigure3CostShape(t *testing.T) {
	m := MLLM72B()
	light := SampleShape{ImageTokens: []int{1024}, GenImages: 1}
	heavy := SampleShape{ImageTokens: []int{4096, 4096, 4096, 4096}, GenImages: 4}

	if m.BackboneFwdFLOPs() != m.BackboneFwdFLOPs() {
		t.Fatal("backbone cost must be deterministic")
	}
	encLight, encHeavy := fwdFLOPs(m, Encoder, light), fwdFLOPs(m, Encoder, heavy)
	if encHeavy <= 4*encLight {
		t.Errorf("encoder cost should grow superlinearly with image tokens: light=%g heavy=%g", encLight, encHeavy)
	}
	genLight, genHeavy := fwdFLOPs(m, Generator, light), fwdFLOPs(m, Generator, heavy)
	if genHeavy <= genLight {
		t.Errorf("generator cost should grow with generated images: %g vs %g", genLight, genHeavy)
	}

	// Resolution scaling: a 1024^2 UNet pass costs ~4x a 512^2 pass
	// (conv cost is linear in pixels; attention adds more).
	r512 := sd21.FwdFLOPsPerImage(512)
	r1024 := sd21.FwdFLOPsPerImage(1024)
	if ratio := r1024 / r512; ratio < 3.5 || ratio > 8 {
		t.Errorf("SD 1024/512 FLOPs ratio = %.2f, want ~4-6x", ratio)
	}
}

func TestFreezeBackwardFactors(t *testing.T) {
	cases := []struct {
		spec          FreezeSpec
		enc, llm, gen float64
	}{
		{FullTraining, 2, 2, 2},
		{AllFrozen, 0, 1, 1},     // projectors-only: grads flow to both projectors
		{EncoderOnly, 2, 1, 1},   // grads must traverse generator and backbone
		{LLMOnly, 0, 2, 1},       // encoder skipped entirely
		{GeneratorOnly, 0, 1, 2}, // backbone carries activation grads to in-projector
	}
	for _, c := range cases {
		if got := c.spec.BackwardFactor(Encoder); got != c.enc {
			t.Errorf("%s encoder factor = %g, want %g", c.spec.Name, got, c.enc)
		}
		if got := c.spec.BackwardFactor(Backbone); got != c.llm {
			t.Errorf("%s backbone factor = %g, want %g", c.spec.Name, got, c.llm)
		}
		if got := c.spec.BackwardFactor(Generator); got != c.gen {
			t.Errorf("%s generator factor = %g, want %g", c.spec.Name, got, c.gen)
		}
	}
}

func TestMemoryModelZeRO1(t *testing.T) {
	m := MLLM72B()
	p := m.Params(Backbone)

	// 70B backbone on y GPUs with DP=2, PP=10, TP=4: y = 80.
	act := m.Backbone.ActivationBytesPerToken() * float64(m.SeqLen)
	mm := MemoryForParams(p, 80, 2, 10, act, false)

	wantParamGrad := 2 * p * 4 / 80 // DP*P*(2+2 bytes)/y
	if math.Abs(mm.ParamAndGradBytes-wantParamGrad)/wantParamGrad > 1e-9 {
		t.Errorf("param+grad bytes = %g, want %g", mm.ParamAndGradBytes, wantParamGrad)
	}
	wantOpt := p * 12 / 80 // ZeRO-1 shards S across all module GPUs
	if math.Abs(mm.OptimizerBytes-wantOpt)/wantOpt > 1e-9 {
		t.Errorf("optimizer bytes = %g, want %g", mm.OptimizerBytes, wantOpt)
	}
	if mm.ActivationBytes <= 0 {
		t.Error("activation bytes must be positive")
	}

	// Frozen modules keep parameters only.
	frozen := MemoryForParams(p, 80, 2, 10, act, true)
	if frozen.OptimizerBytes != 0 {
		t.Error("frozen module must not hold optimizer state")
	}
	if frozen.ParamAndGradBytes >= mm.ParamAndGradBytes {
		t.Error("frozen module must hold fewer bytes than trainable")
	}
}

// Property: forward FLOPs are monotone in sequence length.
func TestFwdFLOPsMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)%8192+1, int(b)%8192+1
		if x > y {
			x, y = y, x
		}
		return Llama3_7B.FwdFLOPs(x) <= Llama3_7B.FwdFLOPs(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total image tokens equals the sum over subsequences, and
// encoder FLOPs are additive across images.
func TestEncoderFLOPsAdditive(t *testing.T) {
	m := MLLM9B()
	f := func(raw []uint8) bool {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		var tokens []int
		for _, r := range raw {
			tokens = append(tokens, int(r)%4096+1)
		}
		joint := fwdFLOPs(m, Encoder, SampleShape{ImageTokens: tokens})
		var sum float64
		for _, tk := range tokens {
			sum += fwdFLOPs(m, Encoder, SampleShape{ImageTokens: []int{tk}})
		}
		if len(tokens) == 0 {
			return joint == 0
		}
		return math.Abs(joint-sum)/sum < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorResolutionSensitivity(t *testing.T) {
	// MLLM-72B uses 1024^2 generation; the smaller models 512^2 (§7).
	if MLLM72B().GenResolution != 1024 {
		t.Error("MLLM-72B must generate at 1024^2")
	}
	if MLLM9B().GenResolution != 512 || MLLM15B().GenResolution != 512 {
		t.Error("small MLLMs must generate at 512^2")
	}
}

func TestProjectorCosts(t *testing.T) {
	p := ProjectorConfig{InDim: 1280, Hidden: 5120, OutDim: 4096}
	wantParams := 1280*5120 + 5120*4096
	if got := p.Params(); got != float64(wantParams) {
		t.Errorf("projector params = %g, want %d", got, wantParams)
	}
	if got := p.FwdFLOPsPerToken(); got != 2*float64(wantParams) {
		t.Errorf("projector FLOPs/token = %g, want %d", got, 2*wantParams)
	}
}

func TestVAEDominatesGeneratorForwardAtHighRes(t *testing.T) {
	// At 1024^2 the full-pixel-resolution VAE encode costs more than the
	// latent-space UNet pass; this is what makes the generator the
	// tallest bar in Figure 3 at high resolution.
	vae := sdVAE.EncodeFLOPsPerImage(1024)
	unet := sd21.FwdFLOPsPerImage(1024)
	if vae <= unet {
		t.Errorf("VAE encode (%g) should exceed UNet pass (%g) at 1024^2", vae, unet)
	}
}

func TestModuleTrainFLOPsFreezeInteraction(t *testing.T) {
	m := MLLM9B()
	s := SampleShape{ImageTokens: []int{1024, 1024}, GenImages: 1}

	fwdFull, bwdFull := trainFLOPs(m, Generator, s, FullTraining)
	fwdFrozen, bwdFrozen := trainFLOPs(m, Generator, s, AllFrozen)
	if fwdFull != fwdFrozen {
		t.Error("freezing must not change forward cost")
	}
	// Full training: bwd = 2x trainable fwd, which excludes the VAE.
	if bwdFull >= 2*fwdFull {
		t.Error("generator backward must exclude the frozen VAE")
	}
	if bwdFrozen >= bwdFull {
		t.Error("frozen generator backward must shrink")
	}
	if bwdFrozen == 0 {
		t.Error("frozen generator still carries activation grads to the output projector")
	}

	// Encoder skips backward entirely when frozen.
	_, encBwd := trainFLOPs(m, Encoder, s, LLMOnly)
	if encBwd != 0 {
		t.Errorf("frozen encoder backward = %g, want 0", encBwd)
	}
}

func TestSampleShapeAccessors(t *testing.T) {
	s := SampleShape{ImageTokens: []int{100, 200, 300}, GenImages: 2}
	if s.TotalImageTokens() != 600 {
		t.Errorf("TotalImageTokens = %d", s.TotalImageTokens())
	}
}

// trainFLOPs prices one sample's module FLOPs on a kernel compiled for
// the call.
func trainFLOPs(m MLLM, mod Module, s SampleShape, f FreezeSpec) (fwd, bwd float64) {
	k := m.Compile(f)
	return k.TrainFLOPs(mod, k.Fold(s))
}

func fwdFLOPs(m MLLM, mod Module, s SampleShape) float64 {
	fwd, _ := trainFLOPs(m, mod, s, FullTraining)
	return fwd
}
