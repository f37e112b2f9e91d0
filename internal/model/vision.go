package model

import "fmt"

// ImageTokens returns the number of modality tokens produced by encoding
// a square image of the given edge resolution: (res/PatchSize)^2, per
// §2.3 ("each image is segmented into 16x16 patches, and each patch is
// converted into one image token").
func ImageTokens(resolution int) int {
	side := resolution / PatchSize
	return side * side
}

// DiffusionConfig describes a latent-diffusion UNet generator
// (Stable-Diffusion 2.1-class, ~1B parameters in the paper's setup).
// The UNet is a multi-scale stack: residual conv blocks at every scale
// and self/cross-attention at the deeper scales. The structural
// description is sufficient to derive parameters and per-image FLOPs as
// a function of resolution, which is what drives Figures 3 and 13-19.
type DiffusionConfig struct {
	Name string
	// LatentScale is the VAE spatial downsampling factor (8 for SD).
	LatentScale int
	// LatentChannels is the latent tensor channel count (4 for SD).
	LatentChannels int
	// StageChannels lists the UNet channel width at each resolution
	// stage, shallow to deep (SD 2.1: 320, 640, 1280, 1280).
	StageChannels []int
	// DownBlocks and UpBlocks are residual blocks per stage on each path
	// of the U. SD uses 2 down and 3 up (the extra up-block consumes the
	// skip connection).
	DownBlocks, UpBlocks int
	// AttentionFromStage is the first stage index (0-based) that carries
	// transformer blocks; SD 2.1 attaches attention at every stage except
	// the shallowest in its 768-v variant; we follow the 2.1 base layout.
	AttentionFromStage int
	// ContextDim is the cross-attention context width (text/LLM hidden).
	ContextDim int
}

// sd21 is the paper's modality generator: Stable Diffusion 2.1.
var sd21 = DiffusionConfig{
	Name:               "SD-2.1",
	LatentScale:        8,
	LatentChannels:     4,
	StageChannels:      []int{320, 640, 1280, 1280},
	DownBlocks:         2,
	UpBlocks:           3,
	AttentionFromStage: 1,
	ContextDim:         1024,
}

// timeEmbedDim is the UNet timestep-embedding width projected into every
// residual block.
const timeEmbedDim = 1280

// Validate reports whether the diffusion config is structurally sound.
func (d DiffusionConfig) Validate() error {
	switch {
	case d.LatentScale <= 0 || d.LatentChannels <= 0:
		return fmt.Errorf("model: %s has non-positive latent geometry", d.Name)
	case len(d.StageChannels) == 0:
		return fmt.Errorf("model: %s has no UNet stages", d.Name)
	case d.DownBlocks <= 0 || d.UpBlocks <= 0:
		return fmt.Errorf("model: %s has non-positive blocks per stage", d.Name)
	}
	return nil
}

// attnParams returns transformer-block parameters at channel width c:
// self-attention (4c^2), cross-attention (2c^2 + 2c*ctx) and a gated MLP
// (8c^2).
func (d DiffusionConfig) attnParams(c float64) float64 {
	ctx := float64(d.ContextDim)
	return 14*c*c + 2*c*ctx
}

// Params returns total UNet parameters derived from the stage structure:
// residual conv blocks (two 3x3 convs; the first up-path conv consumes
// the concatenated skip connection, 2c->c), per-block timestep-embedding
// projections, transformer blocks on the deeper stages, resampling convs
// between stages, and the mid block.
func (d DiffusionConfig) Params() float64 {
	total := 0.0
	for i, ch := range d.StageChannels {
		c := float64(ch)
		down := float64(d.DownBlocks) * (18*c*c + timeEmbedDim*c)
		up := float64(d.UpBlocks) * (27*c*c + timeEmbedDim*c)
		total += down + up
		if i >= d.AttentionFromStage {
			total += float64(d.DownBlocks+d.UpBlocks) * d.attnParams(c)
		}
		if i+1 < len(d.StageChannels) {
			next := float64(d.StageChannels[i+1])
			total += 2 * 9 * c * next // downsample + upsample convs
		}
	}
	// Mid block: two residual blocks and one transformer block at the
	// deepest width, plus input/output convs at the shallowest.
	c := float64(d.StageChannels[len(d.StageChannels)-1])
	total += 2*(18*c*c+timeEmbedDim*c) + d.attnParams(c)
	c0 := float64(d.StageChannels[0])
	total += 2*9*float64(d.LatentChannels)*c0 + 4*c0*c0
	return total
}

// FwdFLOPsPerImage returns forward FLOPs for one denoising step over one
// image at the given pixel resolution. Training a latent diffusion model
// performs one UNet pass per sample (random timestep), so this is the
// per-image training forward cost. Conv cost is linear in latent pixels;
// attention adds a quadratic term, which is why generator time grows
// slightly faster than 4x when resolution doubles (Figure 3).
func (d DiffusionConfig) FwdFLOPsPerImage(resolution int) float64 {
	latent := float64(resolution / d.LatentScale)
	total := 0.0
	ctx := float64(d.ContextDim)
	for i, ch := range d.StageChannels {
		c := float64(ch)
		side := latent / float64(int(1)<<i)
		if side < 1 {
			side = 1
		}
		px := side * side
		total += float64(d.DownBlocks) * (2 * 18 * c * c) * px
		total += float64(d.UpBlocks) * (2 * 27 * c * c) * px
		if i >= d.AttentionFromStage {
			proj := 2 * (14*c*c + 2*c*ctx) * px
			quad := 2 * 2 * px * px * c // QK^T + AV
			total += float64(d.DownBlocks+d.UpBlocks) * (proj + quad)
		}
		if i+1 < len(d.StageChannels) {
			next := float64(d.StageChannels[i+1])
			total += 2 * 2 * 9 * c * next * px
		}
	}
	// Mid block at the deepest stage.
	c := float64(d.StageChannels[len(d.StageChannels)-1])
	side := latent / float64(int(1)<<(len(d.StageChannels)-1))
	if side < 1 {
		side = 1
	}
	px := side * side
	total += 2*(2*18*c*c)*px + 2*(14*c*c+2*c*ctx)*px + 2*2*px*px*c
	return total
}

// VAEConfig describes the frozen variational autoencoder that maps
// pixel space to the diffusion latent space (Table 1 lists VAE [36] as a
// generator component, e.g. in Bagel). The VAE runs at full pixel
// resolution, so its encode cost dominates the generator's forward time
// at 1024x1024 even though its parameter count is small. It is always
// frozen: the diffusion loss lives in latent space, so no gradients flow
// through it.
type VAEConfig struct {
	Name string
	// StageChannels lists encoder channel widths from pixel resolution
	// downward; the decoder mirrors them.
	StageChannels []int
	// BlocksPerStage is residual blocks per stage.
	BlocksPerStage int
	// InChannels is 3 for RGB.
	InChannels int
}

// sdVAE is the Stable-Diffusion autoencoder (f=8).
var sdVAE = VAEConfig{
	Name:           "SD-VAE",
	StageChannels:  []int{128, 256, 512, 512},
	BlocksPerStage: 2,
	InChannels:     3,
}

// Params returns encoder-side VAE parameters (the training path only
// encodes; decoding happens at inference).
func (v VAEConfig) Params() float64 {
	total := 0.0
	for i, ch := range v.StageChannels {
		c := float64(ch)
		total += float64(v.BlocksPerStage) * 18 * c * c
		if i+1 < len(v.StageChannels) {
			total += 9 * c * float64(v.StageChannels[i+1])
		}
	}
	total += 9 * float64(v.InChannels) * float64(v.StageChannels[0])
	return total
}

// EncodeFLOPsPerImage returns forward FLOPs to encode one square image
// of the given pixel resolution into the latent space.
func (v VAEConfig) EncodeFLOPsPerImage(resolution int) float64 {
	total := 0.0
	for i, ch := range v.StageChannels {
		c := float64(ch)
		side := float64(resolution) / float64(int(1)<<i)
		if side < 1 {
			side = 1
		}
		px := side * side
		total += float64(v.BlocksPerStage) * (2 * 18 * c * c) * px
		if i+1 < len(v.StageChannels) {
			next := float64(v.StageChannels[i+1])
			total += 2 * 9 * c * next * px / 4 // stride-2 downsample
		}
	}
	total += 2 * 9 * float64(v.InChannels) * float64(v.StageChannels[0]) * float64(resolution) * float64(resolution)
	return total
}

// ActivationBytesPerImage estimates UNet activation memory for one image
// at the given resolution (bf16, checkpointed residual blocks).
func (d DiffusionConfig) ActivationBytesPerImage(resolution int) float64 {
	latent := float64(resolution / d.LatentScale)
	total := 0.0
	blocks := float64(d.DownBlocks + d.UpBlocks)
	for i, ch := range d.StageChannels {
		side := latent / float64(int(1)<<i)
		if side < 1 {
			side = 1
		}
		total += side * side * float64(ch) * 2 * blocks * 4
	}
	return total
}
