// Package model describes the three modules of a multimodal LLM —
// modality encoder, LLM backbone, and modality generator (Figure 1 of
// the paper) — and derives the analytic quantities every other layer
// consumes: parameter counts, forward/backward FLOPs, and memory
// footprints under mixed-precision training with ZeRO-1.
//
// The architecture survey of Table 1 (Flamingo = NFNet+GPT-3, LLaVA =
// CLIP+Vicuna, PaLM-E = ViT+PaLM, EMU = EVA-CLIP+Llama+SD, Bagel =
// ViT+Qwen2.5+VAE, VideoPoet = MAGViT/SoundStream+GPT) all share this
// encoder -> projector -> backbone -> projector -> generator shape; the
// concrete presets here follow the paper's evaluation setup: Llama3
// backbones (Table 2), a ViT-Huge encoder and a Stable-Diffusion-class
// generator.
package model

import (
	"errors"
	"fmt"
)

// TransformerConfig describes a dense decoder-only transformer backbone
// (or a ViT-style encoder, which shares the block structure). Sizes
// follow Table 2 of the paper.
type TransformerConfig struct {
	Name string
	// Layers is the number of transformer blocks.
	Layers int
	// HiddenSize is the model (embedding) dimension.
	HiddenSize int
	// FFNHiddenSize is the feed-forward inner dimension.
	FFNHiddenSize int
	// Heads is the number of attention heads.
	Heads int
	// KVGroups is the number of key/value head groups (grouped-query
	// attention); KVGroups == Heads means classic multi-head attention.
	KVGroups int
	// VocabSize is the output vocabulary; zero for encoders that have no
	// token embedding / LM head.
	VocabSize int
	// GatedFFN selects the SwiGLU-style three-matrix FFN used by Llama;
	// false selects the classic two-matrix GELU MLP used by ViT.
	GatedFFN bool
}

// LLM backbone presets from Table 2 of the paper.
var (
	Llama3_7B = TransformerConfig{
		Name: "Llama3-7B", Layers: 32, HiddenSize: 4096, FFNHiddenSize: 11008,
		Heads: 32, KVGroups: 32, VocabSize: 32000, GatedFFN: true,
	}
	Llama3_13B = TransformerConfig{
		Name: "Llama3-13B", Layers: 40, HiddenSize: 5120, FFNHiddenSize: 13824,
		Heads: 40, KVGroups: 40, VocabSize: 32000, GatedFFN: true,
	}
	Llama3_70B = TransformerConfig{
		Name: "Llama3-70B", Layers: 80, HiddenSize: 8192, FFNHiddenSize: 28672,
		Heads: 64, KVGroups: 8, VocabSize: 32000, GatedFFN: true,
	}
)

// vitHuge is the paper's modality encoder (0.63B parameters), aligned
// with the encoders of Qwen2.5-VL and Seed1.5-VL per §7. Images are
// split into 16x16 patches, each becoming one modality token (§2.3).
var vitHuge = TransformerConfig{
	Name: "ViT-Huge", Layers: 32, HiddenSize: 1280, FFNHiddenSize: 5120,
	Heads: 16, KVGroups: 16, VocabSize: 0, GatedFFN: false,
}

// PatchSize is the image patch edge in pixels; one patch is one token.
const PatchSize = 16

// Validate reports whether the configuration is structurally sound.
func (c TransformerConfig) Validate() error {
	switch {
	case c.Layers <= 0 || c.HiddenSize <= 0 || c.FFNHiddenSize <= 0:
		return fmt.Errorf("model: %s has non-positive dimensions", c.Name)
	case c.Heads <= 0 || c.KVGroups <= 0:
		return fmt.Errorf("model: %s has non-positive head counts", c.Name)
	case c.Heads%c.KVGroups != 0:
		return fmt.Errorf("model: %s Heads (%d) not divisible by KVGroups (%d)", c.Name, c.Heads, c.KVGroups)
	case c.HiddenSize%c.Heads != 0:
		return fmt.Errorf("model: %s HiddenSize (%d) not divisible by Heads (%d)", c.Name, c.HiddenSize, c.Heads)
	case c.VocabSize < 0:
		return errors.New("model: negative vocab size")
	}
	return nil
}

// kvHidden returns the total key/value projection width under GQA.
func (c TransformerConfig) kvHidden() float64 {
	return float64(c.HiddenSize) * float64(c.KVGroups) / float64(c.Heads)
}

// ParamsPerLayer returns parameters in one transformer block.
func (c TransformerConfig) ParamsPerLayer() float64 {
	h := float64(c.HiddenSize)
	f := float64(c.FFNHiddenSize)
	attn := h*h + // Q projection
		2*h*c.kvHidden() + // K and V projections
		h*h // output projection
	var ffn float64
	if c.GatedFFN {
		ffn = 3 * h * f // gate, up, down
	} else {
		ffn = 2 * h * f // up, down
	}
	norms := 2 * h
	return attn + ffn + norms
}

// Params returns total parameters including embeddings and LM head
// (untied, as in Llama3).
func (c TransformerConfig) Params() float64 {
	p := float64(c.Layers) * c.ParamsPerLayer()
	if c.VocabSize > 0 {
		p += 2 * float64(c.VocabSize) * float64(c.HiddenSize) // embed + head
	}
	return p
}

// FwdFLOPsPerToken returns dense forward FLOPs for one token at the given
// context length. Matrix multiplies contribute 2*params; attention adds
// the score/context products, which depend on sequence length.
func (c TransformerConfig) FwdFLOPsPerToken(seqLen int) float64 {
	return c.compile().perToken(seqLen)
}

// FwdFLOPs returns forward FLOPs for a whole sequence of the given length.
func (c TransformerConfig) FwdFLOPs(seqLen int) float64 {
	return float64(seqLen) * c.FwdFLOPsPerToken(seqLen)
}

// Precision constants for mixed-precision training (§3: DistTrain uses
// mixed precision and ZeRO-1 for the LLM backbone).
const (
	// BytesPerParam is bf16 weight storage.
	BytesPerParam = 2
	// bytesPerGrad is bf16 gradient storage.
	bytesPerGrad = 2
	// BytesPerOptimState covers the fp32 master copy plus Adam first and
	// second moments (4+4+4).
	BytesPerOptimState = 12
)

// ActivationBytesPerToken returns activation memory per token for one
// 1F1B in-flight microbatch across the whole model, assuming flash
// attention and selective recomputation (the production configuration).
func (c TransformerConfig) ActivationBytesPerToken() float64 {
	// Per layer: input (2h), QKV (2h+2*kv), attn out (2h), FFN up (2f or
	// 4f gated halves retained), residuals; ~18h+4f bytes with bf16 and
	// selective recomputation is a good production estimate.
	h := float64(c.HiddenSize)
	f := float64(c.FFNHiddenSize)
	perLayer := 18*h + 4*f
	return float64(c.Layers) * perLayer
}

// String implements fmt.Stringer.
func (c TransformerConfig) String() string {
	return fmt.Sprintf("%s(l=%d h=%d ffn=%d heads=%d groups=%d)",
		c.Name, c.Layers, c.HiddenSize, c.FFNHiddenSize, c.Heads, c.KVGroups)
}
