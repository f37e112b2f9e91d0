package model

// The one module table: an MLLM and a FreezeSpec compile once into a
// CostKernel, one row of constants per module — its parameter count,
// per-sample FLOPs, activation bytes and replica balance unit — a
// sample folds through it image by image into a Workload, and a
// module's costs are a few multiply-adds of its row on the workload.
// Only constant prefixes are hoisted, so results are bit-identical to
// the formulas on the configs (FuzzSamplePricing, internal/profiler).

// transformerKernel is a TransformerConfig compiled for FwdFLOPs.
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

// perToken is forward FLOPs per token. Per token per layer QK^T and the
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
// the per-sample cost formulas read: one row per Module, indexed like
// Modules. Read-only, so safe to share.
type CostKernel struct {
	enc  transformerKernel // the encoder's ViT passes, folded image by image
	rows [numModules]moduleRow
}

// moduleRow is one module's costs (§4.1–4.2), each a sum of the row's
// coefficients times a workload's counts, added in field order; a zero
// term adds exactly, so every module reads the one expression.
type moduleRow struct {
	params float64 // co-located projectors (and the frozen VAE) included, per §4.1
	// Forward FLOPs: fixed + vit·ViT passes + perToken·image tokens +
	// perGen·generated images. Backward: bwd times the same sum with
	// perGenBwd, the generated-image FLOPs on the gradient path.
	fixed, vit, perToken, perGen, perGenBwd, bwd float64
	// Activation bytes: actFixed + actToken·image tokens +
	// actGen·generated images, at least one.
	actFixed, actToken, actGen float64
	byGen                      bool // replicas take whole generated images, not whole images
}

// Compile builds the model's cost kernel under a freeze setting.
func (m MLLM) Compile(f FreezeSpec) CostKernel {
	unet := m.Generator.FwdFLOPsPerImage(m.GenResolution)
	k := CostKernel{enc: m.Encoder.compile(), rows: [numModules]moduleRow{
		Encoder: {params: m.Encoder.Params() + m.InProj.Params(), vit: 1,
			perToken: m.InProj.FwdFLOPsPerToken(), actToken: m.Encoder.ActivationBytesPerToken()},
		// The backbone's cost is independent of the modality mix.
		Backbone: {params: m.Backbone.Params(), fixed: m.Backbone.FwdFLOPs(m.SeqLen),
			actFixed: m.Backbone.ActivationBytesPerToken() * float64(m.SeqLen)},
		// The generator runs the output projector over the packed
		// sequence, then per generated image a frozen VAE encode (no
		// gradient path) and one UNet pass.
		Generator: {params: m.Generator.Params() + m.OutProj.Params() + m.VAE.Params(),
			fixed:  float64(m.SeqLen) * m.OutProj.FwdFLOPsPerToken(),
			perGen: unet + m.VAE.EncodeFLOPsPerImage(m.GenResolution), perGenBwd: unet,
			actGen: m.Generator.ActivationBytesPerImage(m.GenResolution), byGen: true},
	}}
	for _, mod := range Modules {
		k.rows[mod].bwd = f.BackwardFactor(mod)
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
// module: the row's sums over the workload.
func (k *CostKernel) TrainFLOPs(mod Module, w Workload) (fwd, bwd float64) {
	r := &k.rows[mod]
	base := r.fixed + r.vit*w.vit + r.perToken*float64(w.tokens)
	gens := float64(w.GenImages)
	return base + r.perGen*gens, r.bwd * (base + r.perGenBwd*gens)
}

// Params returns the parameter count of one module.
func (k *CostKernel) Params(mod Module) float64 { return k.rows[mod].params }

// ActivationBytes returns the activation bytes a workload holds in a
// module while it is in flight under 1F1B.
func (k *CostKernel) ActivationBytes(mod Module, w Workload) float64 {
	r := &k.rows[mod]
	return r.actFixed + r.actToken*float64(w.tokens) + r.actGen*float64(max(w.GenImages, 1))
}

// ReplicaUnits returns how many whole units the replicas of a module's
// group divide a workload into: images for the encoder, generated
// images for the generator.
func (k *CostKernel) ReplicaUnits(mod Module, w Workload) int {
	if k.rows[mod].byGen {
		return w.GenImages
	}
	return w.Images
}
