package model

import (
	"errors"
	"fmt"
	"strings"
)

// Module identifies one of the three trainable components of a
// multimodal LLM (Figure 1 of the paper).
type Module int

const (
	// Encoder is the modality encoder (e.g. ViT for images).
	Encoder Module = iota
	// Backbone is the LLM backbone (e.g. Llama3).
	Backbone
	// Generator is the modality generator (e.g. Stable Diffusion).
	Generator
	numModules
)

// Modules lists the pipeline-ordered modules.
var Modules = [...]Module{Encoder, Backbone, Generator}

func (m Module) String() string {
	switch m {
	case Encoder:
		return "encoder"
	case Backbone:
		return "backbone"
	case Generator:
		return "generator"
	}
	return fmt.Sprintf("module(%d)", int(m))
}

// ProjectorConfig is the MLP projector linking modules (input projector
// after the encoder, output projector before the generator). Projectors
// are co-located with the encoder or generator and replicated as needed
// (§2.1, §4.1); they are always trainable (§7.3 trains "projectors only"
// in the complete-freezing setting).
type ProjectorConfig struct {
	InDim, Hidden, OutDim int
}

// Params returns projector parameter count.
func (p ProjectorConfig) Params() float64 {
	return float64(p.InDim)*float64(p.Hidden) + float64(p.Hidden)*float64(p.OutDim)
}

// FwdFLOPsPerToken returns forward FLOPs per projected token.
func (p ProjectorConfig) FwdFLOPsPerToken() float64 { return 2 * p.Params() }

// MLLM assembles encoder, backbone and generator into the multimodal
// model of Figure 1. SeqLen is the fixed training sequence length into
// which modality subsequences are interleaved (§2.3: 8192 tokens).
type MLLM struct {
	Name      string
	Encoder   TransformerConfig
	InProj    ProjectorConfig
	Backbone  TransformerConfig
	OutProj   ProjectorConfig
	Generator DiffusionConfig
	// VAE is the frozen pixel<->latent autoencoder used by the
	// generator's diffusion loss; its encode pass runs at full pixel
	// resolution and is charged to the generator module.
	VAE VAEConfig
	// GenResolution is the image resolution used for generation
	// training; the paper uses 1024x1024 for MLLM-72B and 512x512 for
	// the smaller models (§7).
	GenResolution int
	SeqLen        int
}

// Evaluation presets of §7: Llama3 backbones paired with ViT-Huge and
// SD 2.1 forming MLLM-9B, MLLM-15B and MLLM-72B.
func MLLM9B() MLLM  { return newMLLM("MLLM-9B", Llama3_7B, 512) }
func MLLM15B() MLLM { return newMLLM("MLLM-15B", Llama3_13B, 512) }
func MLLM72B() MLLM { return newMLLM("MLLM-72B", Llama3_70B, 1024) }

func newMLLM(name string, backbone TransformerConfig, genRes int) MLLM {
	return MLLM{
		Name:          name,
		Encoder:       vitHuge,
		InProj:        ProjectorConfig{InDim: vitHuge.HiddenSize, Hidden: 4 * vitHuge.HiddenSize, OutDim: backbone.HiddenSize},
		Backbone:      backbone,
		OutProj:       ProjectorConfig{InDim: backbone.HiddenSize, Hidden: 4 * sd21.ContextDim, OutDim: sd21.ContextDim},
		Generator:     sd21,
		VAE:           sdVAE,
		GenResolution: genRes,
		SeqLen:        8192,
	}
}

// Presets returns the three evaluation models in paper order.
func Presets() []MLLM { return []MLLM{MLLM9B(), MLLM15B(), MLLM72B()} }

// ByName resolves a CLI model name (9b, 15b or 72b, case insensitive,
// with or without the mllm- prefix) to its preset.
func ByName(name string) (MLLM, error) {
	l := strings.ToLower(name)
	for _, m := range Presets() {
		if p := strings.ToLower(m.Name); l == p || "mllm-"+l == p {
			return m, nil
		}
	}
	return MLLM{}, fmt.Errorf("unknown model %q (want 9b, 15b or 72b)", name)
}

// Validate checks the assembled model.
func (m MLLM) Validate() error {
	if err := m.Encoder.Validate(); err != nil {
		return err
	}
	if err := m.Backbone.Validate(); err != nil {
		return err
	}
	if err := m.Generator.Validate(); err != nil {
		return err
	}
	if m.SeqLen <= 0 {
		return errors.New("model: SeqLen must be positive")
	}
	if m.GenResolution <= 0 || m.GenResolution%m.Generator.LatentScale != 0 {
		return fmt.Errorf("model: GenResolution %d incompatible with latent scale %d",
			m.GenResolution, m.Generator.LatentScale)
	}
	return nil
}

// Params returns the parameter count of one module (projectors are
// accounted with the module they are co-located with: input projector
// with the encoder, output projector with the generator, per §4.1).
func (m MLLM) Params(mod Module) float64 {
	switch mod {
	case Encoder:
		return m.Encoder.Params() + m.InProj.Params()
	case Backbone:
		return m.Backbone.Params()
	case Generator:
		return m.Generator.Params() + m.OutProj.Params() + m.VAE.Params()
	}
	return 0
}

// SampleShape characterises one training sample's modality composition:
// how many image subsequences it interleaves and how many tokens each
// contributes. Text tokens fill the remainder of the fixed SeqLen
// sequence. This is the unit of data heterogeneity (§2.3).
type SampleShape struct {
	// ImageTokens holds the token count of each image subsequence.
	ImageTokens []int
	// GenImages is how many images the generator trains on for this
	// sample (the images the sample asks the model to produce).
	GenImages int
}

// TotalImageTokens sums all image subsequence sizes.
func (s SampleShape) TotalImageTokens() int {
	t := 0
	for _, n := range s.ImageTokens {
		t += n
	}
	return t
}

// BackboneFwdFLOPs returns forward FLOPs for the LLM backbone over one
// packed sequence. It is independent of the sample's modality mix —
// the root cause of the paper's observation that LLM stage time is
// constant while encoder/generator stage times vary (Figure 3).
func (m MLLM) BackboneFwdFLOPs() float64 { return m.Backbone.FwdFLOPs(m.SeqLen) }

// FreezeSpec captures which modules are frozen during a training phase
// (§7.3). Frozen modules still run forward passes but skip weight
// gradients; projectors always train.
type FreezeSpec struct {
	Name                         string
	Encoder, Backbone, Generator bool // true = frozen
}

// The four frozen-training settings evaluated in §7.3 plus full training.
var (
	FullTraining  = FreezeSpec{Name: "full"}
	AllFrozen     = FreezeSpec{Name: "all-frozen", Encoder: true, Backbone: true, Generator: true}
	EncoderOnly   = FreezeSpec{Name: "encoder-only", Backbone: true, Generator: true}
	LLMOnly       = FreezeSpec{Name: "llm-only", Encoder: true, Generator: true}
	GeneratorOnly = FreezeSpec{Name: "generator-only", Encoder: true, Backbone: true}
)

// FrozenSettings lists the §7.3 experiment settings in paper order.
func FrozenSettings() []FreezeSpec {
	return []FreezeSpec{AllFrozen, EncoderOnly, LLMOnly, GeneratorOnly}
}

// FreezeByName resolves a CLI freeze-setting name: full, all-frozen,
// encoder-only, llm-only or generator-only.
func FreezeByName(name string) (FreezeSpec, error) {
	for _, f := range append([]FreezeSpec{FullTraining}, FrozenSettings()...) {
		if f.Name == name {
			return f, nil
		}
	}
	return FreezeSpec{}, fmt.Errorf("unknown freeze setting %q", name)
}

// Frozen reports whether the given module is frozen.
func (f FreezeSpec) Frozen(mod Module) bool {
	switch mod {
	case Encoder:
		return f.Encoder
	case Backbone:
		return f.Backbone
	case Generator:
		return f.Generator
	}
	return false
}

// BackwardFactor returns the module's backward cost as a multiple of its
// forward cost under this freeze setting.
//
// A trainable module computes both activation gradients and weight
// gradients (factor 2). A frozen module computes activation gradients
// only (factor 1) when some trainable parameter lies upstream on its
// gradient path, and skips backward entirely (factor 0) otherwise.
// Projectors always train: the input projector sits after the encoder
// and the output projector before the generator, so the backbone and
// generator always run at least factor 1, while a frozen encoder runs
// factor 0 (nothing trainable is upstream of it).
func (f FreezeSpec) BackwardFactor(mod Module) float64 {
	if !f.Frozen(mod) {
		return 2
	}
	if mod == Encoder {
		return 0
	}
	return 1
}

// ModuleMemory describes the per-GPU memory model of §4.2 for one module
// sharded across its parallelism group.
type ModuleMemory struct {
	// ParamAndGradBytes is the replicated parameter+gradient memory for
	// the module shard on one GPU: DP*P/gpus in the paper's notation.
	ParamAndGradBytes float64
	// OptimizerBytes is the ZeRO-1-sharded optimizer state: S/gpus.
	OptimizerBytes float64
	// ActivationBytes is the 1F1B peak activation memory: DP*L*PP/gpus.
	ActivationBytes float64
}

// Total sums the components.
func (mm ModuleMemory) Total() float64 {
	return mm.ParamAndGradBytes + mm.OptimizerBytes + mm.ActivationBytes
}

// MemoryForParams computes the §4.2 memory constraint terms for a
// module of p parameters.
//
//	gpus     — GPUs allocated to the module (x, y or z)
//	dp, pp   — the module's data- and pipeline-parallel sizes
//	actBytes — activation bytes for ONE microbatch across the whole module
//	frozen   — frozen modules keep parameters but need no gradients or
//	           optimizer states
func MemoryForParams(p float64, gpus, dp, pp int, actBytes float64, frozen bool) ModuleMemory {
	var mm ModuleMemory
	perParam := float64(BytesPerParam)
	optim := 0.0
	if !frozen {
		perParam += float64(bytesPerGrad)
		optim = p * BytesPerOptimState / float64(gpus) // ZeRO-1 shards across DP
	}
	mm.ParamAndGradBytes = float64(dp) * p * perParam / float64(gpus)
	mm.OptimizerBytes = optim
	// 1F1B keeps up to PP in-flight microbatches on the first stage.
	mm.ActivationBytes = float64(dp) * actBytes * float64(pp) / float64(gpus)
	return mm
}
