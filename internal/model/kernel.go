package model

// The one statement of the per-sample FLOPs formulas: an MLLM and a
// FreezeSpec compile once into a CostKernel of constants, a sample
// folds through it image by image into a Workload, and a module's FLOPs
// are a few multiply-adds on the pair (the value methods delegate
// here). Only constant prefixes are hoisted, so results are bit-identical
// to the formulas on the configs (FuzzSamplePricing, internal/profiler).

// transformerKernel is a TransformerConfig compiled for FwdFLOPsPerToken.
type transformerKernel struct {
	matmul float64 // 2·L·ParamsPerLayer: matrix multiplies contribute 2·params
	attn   float64 // L·2 (causal) or L·4 (bidirectional, halved after the s·h product)
	hidden float64
	head   float64 // LM head; 0 without a vocabulary
	bidir  bool
}

func (c TransformerConfig) compile() transformerKernel {
	h, l := float64(c.HiddenSize), float64(c.Layers)
	t := transformerKernel{matmul: 2 * l * c.ParamsPerLayer(), attn: l * 2, hidden: h}
	if c.VocabSize == 0 {
		t.attn, t.bidir = l*4, true
	} else if c.VocabSize > 0 {
		t.head = 2 * float64(c.VocabSize) * h
	}
	return t
}

// perToken is FwdFLOPsPerToken. Per token per layer QK^T and the
// attention-weighted V sum are 2·s·h FLOPs each; causal masking halves
// the effective length, and the bidirectional encoder costs the same.
func (t transformerKernel) perToken(seqLen int) float64 {
	attn := t.attn * float64(seqLen) * t.hidden
	if t.bidir {
		attn /= 2
	}
	return t.matmul + attn + t.head
}

// CostKernel is an MLLM under a FreezeSpec compiled to the constants
// the per-sample cost formulas read. Read-only, so safe to share.
type CostKernel struct {
	enc      transformerKernel
	inProj   float64             // input-projector FLOPs per image token
	backbone float64             // BackboneFwdFLOPs: independent of the modality mix
	outProj  float64             // output projector over the packed sequence
	unet     float64             // one UNet denoising pass per generated image
	unetVAE  float64             // the same plus the frozen VAE encode
	bwd      [numModules]float64 // FreezeSpec.BackwardFactor
}

// Compile builds the model's cost kernel under a freeze setting.
func (m MLLM) Compile(f FreezeSpec) CostKernel {
	unet := m.Generator.FwdFLOPsPerImage(m.GenResolution)
	k := CostKernel{
		enc:      m.Encoder.compile(),
		inProj:   m.InProj.FwdFLOPsPerToken(),
		backbone: m.BackboneFwdFLOPs(),
		outProj:  float64(m.SeqLen) * m.OutProj.FwdFLOPsPerToken(),
		unet:     unet,
		unetVAE:  unet + m.VAE.EncodeFLOPsPerImage(m.GenResolution),
	}
	for _, mod := range Modules {
		k.bwd[mod] = f.BackwardFactor(mod)
	}
	return k
}

// Workload is a sample's (or a microbatch's) modality mix folded
// through a CostKernel, image by image in subsequence order.
type Workload struct {
	vit       float64 // Σ ViT forward FLOPs over the positive-size images
	tokens    int     // Σ image tokens
	Images    int     // image subsequences, non-positive sizes included
	GenImages int     // images the generator trains on
}

// AddImage folds one image subsequence into w: a ViT pass whose
// attention is quadratic in the image's tokens, not the packed sequence.
func (k *CostKernel) AddImage(w *Workload, tokens int) {
	w.Images++
	w.tokens += tokens
	if tokens > 0 {
		w.vit += float64(tokens) * k.enc.perToken(tokens)
	}
}

// Add folds o into w: the two image sequences concatenated. ViT FLOPs
// are integers far below 2^53, so this matches folding image by image.
func (w *Workload) Add(o Workload) {
	w.vit += o.vit
	w.tokens += o.tokens
	w.Images += o.Images
	w.GenImages += o.GenImages
}

// Fold returns the workload of one sample shape.
func (k *CostKernel) Fold(s SampleShape) Workload {
	w := Workload{GenImages: s.GenImages}
	for _, tokens := range s.ImageTokens {
		k.AddImage(&w, tokens)
	}
	return w
}

// TrainFLOPs returns forward and backward FLOPs of one workload in a
// module. The encoder adds the input projector over all image tokens to
// the ViT passes; the generator runs the output projector plus, per
// generated image, a frozen VAE encode and one UNet pass. Backward is
// the freeze factor of forward, the VAE (no gradient path) excluded.
func (k *CostKernel) TrainFLOPs(mod Module, w Workload) (fwd, bwd float64) {
	switch mod {
	case Encoder:
		fwd = w.vit + float64(w.tokens)*k.inProj
	case Backbone:
		fwd = k.backbone
	case Generator:
		fwd = k.outProj + float64(w.GenImages)*k.unetVAE
		return fwd, k.bwd[mod] * (k.outProj + float64(w.GenImages)*k.unet)
	}
	return fwd, k.bwd[mod] * fwd
}
