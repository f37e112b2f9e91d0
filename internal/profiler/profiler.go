// Package profiler is DistTrain's performance profiler (§3): it "runs a
// series of benchmarking training trials and constructs a performance
// profiler with linear interpolation to estimate each module's
// computation and communication time". The trials here evaluate the
// analytic cost model of internal/model on a calibrated GPU efficiency
// curve; the interpolation layer then answers arbitrary workload
// queries, exactly as the production profiler answers them from
// measured trials.
//
// The profiler exposes the paper's three cost functions — C_me(TP),
// C_lm(TP) and C_mg(TP), the forward time of an entire module for one
// sample at a given tensor-parallel width, communication included —
// plus their fwd+bwd variants used by the orchestration objective.
//
// Pricing is compiled, not re-derived per call. New compiles the model
// and freeze setting into a model.CostKernel (FLOPs constants, fixed
// for the profiler's life) and tabulates a Rate — achieved FLOP/s and
// exposed TP communication — per (module, width); rates read the
// calibrated mean image size, so CalibrateShapes rebuilds the table and
// outdates every Rate handed out. Rate.Price is the whole per-sample
// evaluation; SampleForward/SampleTrain wrap it, and the trainer prices
// every sample through rates it resolves once per plan.
package profiler

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/data"
	"disttrain/internal/model"
)

// Options configures a profiler.
type Options struct {
	Cluster cluster.Cluster
	Model   model.MLLM
	Freeze  model.FreezeSpec
	// StepCCLOverlap is the fraction of tensor-parallel communication
	// hidden behind computation by StepCCL (Appendix A.1); 0 models the
	// baseline without overlap.
	StepCCLOverlap float64
	// SeqParallel enables sequence parallelism inside the LLM backbone.
	SeqParallel bool
	// ReplicateSmallModules processes different images on different
	// GPUs of an encoder/generator group instead of tensor-parallelism
	// ("we replicate the modality encoder and generator across the GPUs
	// within the TP group... whereas TP itself is not used", §7.1).
	ReplicateSmallModules bool
	// MicrobatchSize is the per-microbatch sample count M (§4.2 sets it
	// to a small predefined constant to avoid memory overflow).
	MicrobatchSize int
	// ModuleGPUs optionally assigns a different accelerator SKU to a
	// module — the heterogeneous-hardware deployment of §8 ("we can
	// place [the] ViT encoder on more economical GPUs, e.g. NVIDIA
	// L20"). Modules absent from the map use the cluster's SKU.
	ModuleGPUs map[model.Module]cluster.GPUSpec
}

// GPUFor returns the accelerator SKU a module runs on.
func (o *Options) GPUFor(mod model.Module) cluster.GPUSpec {
	if g, ok := o.ModuleGPUs[mod]; ok {
		return g
	}
	return o.Cluster.GPU
}

// DefaultOptions returns the production configuration for a model on a
// cluster: StepCCL enabled, sequence parallelism on, replicated small
// modules, M = 1.
func DefaultOptions(cl cluster.Cluster, m model.MLLM) Options {
	return Options{
		Cluster:               cl,
		Model:                 m,
		Freeze:                model.FullTraining,
		StepCCLOverlap:        0.85,
		SeqParallel:           true,
		ReplicateSmallModules: true,
		MicrobatchSize:        1,
	}
}

// Profiler converts module workloads into seconds.
//
// Concurrency: query methods (CFwd, CTrain, SampleForward, SampleTrain,
// SampleCost, Resolve, Kernel, InterpForward, MeanShape, Options) and
// resolved Rates are safe for concurrent use — the parallel plan-search
// engine and the trainer's rank workers issue them from many goroutines
// at once. Calibrate mutates the profiler and must not run concurrently
// with queries; it outdates every Rate resolved before it (the kernel
// stays valid). Calibrate once, then share.
type Profiler struct {
	opts   Options
	kernel model.CostKernel // compiled from (opts.Model, opts.Freeze)
	rates  [3][4]Rate       // resolve at widths 1, 2, 4, 8; CalibrateShapes rebuilds it
	// meanShape is the corpus-calibrated average sample composition,
	// gathered by Calibrate (the manager "samples a subset of training
	// data to analyze the data distribution").
	meanShape   model.SampleShape
	calibrated  bool
	interpTable map[interpKey][]interpPoint
	// fp is the cached CalibrationFingerprint, recomputed whenever the
	// hashed state changes (New, CalibrateShapes). A plain field is safe
	// under the same contract as meanShape: calibration never races
	// queries.
	fp string
}

type interpKey struct {
	mod model.Module
	tp  int
}

type interpPoint struct {
	tokens float64 // workload size proxy (modality tokens or gen images)
	fwd    float64
}

// New creates a profiler. Options must carry a valid cluster and model.
func New(opts Options) (*Profiler, error) {
	if err := opts.Cluster.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	if opts.MicrobatchSize <= 0 {
		return nil, fmt.Errorf("profiler: MicrobatchSize %d must be positive", opts.MicrobatchSize)
	}
	if opts.StepCCLOverlap < 0 || opts.StepCCLOverlap > 1 {
		return nil, fmt.Errorf("profiler: StepCCLOverlap %g outside [0,1]", opts.StepCCLOverlap)
	}
	p := &Profiler{opts: opts, interpTable: map[interpKey][]interpPoint{}, kernel: opts.Model.Compile(opts.Freeze)}
	p.tabulate()
	p.fp = p.computeFingerprint()
	return p, nil
}

// Options returns the profiler's configuration.
func (p *Profiler) Options() Options { return p.opts }

// efficiency returns the fraction of peak FLOP/s a module achieves on
// one GPU, degraded as tensor parallelism shrinks the per-GPU matrix
// shards. Values are calibrated so the end-to-end evaluation reproduces
// the paper's MFU bands (EXPERIMENTS.md): dense 8K-context transformer
// GEMMs near 0.68 of bf16 peak, ViT's smaller GEMMs near 0.57, and the
// generator mix (UNet convolutions plus the memory-bound VAE) near
// 0.44.
func (p *Profiler) efficiency(mod model.Module, width int) float64 {
	var base float64
	switch mod {
	case model.Backbone:
		base = 0.68
	case model.Encoder:
		base = 0.57
	case model.Generator:
		base = 0.44
	}
	if p.opts.ReplicateSmallModules && mod != model.Backbone {
		// Replication keeps full-size kernels on every GPU.
		return base
	}
	return base * (1 - 0.02*math.Log2(float64(width)))
}

// tpComm returns the exposed tensor-parallel communication time for one
// sample across a whole module at the given TP width.
func (p *Profiler) tpComm(mod model.Module, tp int) float64 {
	if tp <= 1 {
		return 0
	}
	if p.opts.ReplicateSmallModules && mod != model.Backbone {
		return 0 // replicated modules do not communicate within the group
	}
	m := &p.opts.Model
	cost := comm.CollectiveCost{
		BandwidthBps: p.opts.Cluster.GroupBandwidth(tp),
		Latency:      p.opts.Cluster.LinkLatency,
	}
	var layers int
	var actBytes float64
	switch mod {
	case model.Backbone:
		layers = m.Backbone.Layers
		actBytes = float64(m.SeqLen) * float64(m.Backbone.HiddenSize) * 2
	case model.Encoder:
		layers = m.Encoder.Layers
		actBytes = float64(p.meanImageTokens()) * float64(m.Encoder.HiddenSize) * 2
	case model.Generator:
		layers = len(m.Generator.StageChannels) * (m.Generator.DownBlocks + m.Generator.UpBlocks)
		latent := float64(m.GenResolution / m.Generator.LatentScale)
		actBytes = latent * latent * float64(m.Generator.StageChannels[0]) * 2
	}
	per := comm.TPOverheadPerLayer(cost, actBytes, tp, p.opts.SeqParallel && mod == model.Backbone, p.opts.StepCCLOverlap)
	return per * float64(layers)
}

func (p *Profiler) meanImageTokens() int {
	if p.calibrated && len(p.meanShape.ImageTokens) > 0 {
		return p.meanShape.ImageTokens[0]
	}
	return 1024
}

// balanceFactor models per-image granularity when a sample's images are
// replicated across the GPUs of a group: k GPUs processing n images
// finish in ceil(n/k) image-times.
func balanceFactor(images, width int) float64 {
	if images <= 0 || width <= 1 {
		return 1
	}
	perGPU := math.Ceil(float64(images) / float64(width))
	return perGPU * float64(width) / float64(images)
}

// Rate is a (module, width) pair resolved against the options and the
// calibration: read-only, valid until the profiler is recalibrated.
type Rate struct {
	k        *model.CostKernel
	mod      model.Module
	width    int
	flops    float64 // width · peak FLOP/s · efficiency
	comm     float64 // exposed TP communication of one forward pass
	perImage bool    // replicas take whole images: imbalanced when images % width != 0
}

// Resolve returns the rate of a module over a width-GPU tensor-parallel
// (or replication) group.
func (p *Profiler) Resolve(mod model.Module, width int) Rate {
	if i := bits.TrailingZeros(uint(width)); width == 1<<i && i < len(p.rates[mod]) {
		return p.rates[mod][i]
	}
	return p.resolve(mod, width)
}

func (p *Profiler) resolve(mod model.Module, width int) Rate {
	return Rate{
		k: &p.kernel, mod: mod, width: width,
		flops:    float64(width) * p.opts.GPUFor(mod).PeakFLOPS * p.efficiency(mod, width),
		comm:     p.tpComm(mod, width),
		perImage: p.opts.ReplicateSmallModules && mod != model.Backbone,
	}
}

func (p *Profiler) tabulate() {
	for _, mod := range model.Modules {
		for i := range p.rates[mod] {
			p.rates[mod][i] = p.resolve(mod, 1<<i)
		}
	}
}

// Price returns C_mod(width) on one concrete workload — the forward
// seconds of the entire module's work on it over the group, communication
// included — and its forward+backward seconds, from one FLOPs evaluation.
func (r Rate) Price(w model.Workload) (fwd, train float64) {
	fwdFLOPs, bwdFLOPs := r.k.TrainFLOPs(r.mod, w)
	fwd = fwdFLOPs / r.flops
	train = (fwdFLOPs + bwdFLOPs) / r.flops
	if r.perImage {
		n := w.Images
		if r.mod == model.Generator {
			n = w.GenImages
		}
		b := balanceFactor(n, r.width)
		fwd *= b
		train *= b
	}
	// Backward mirrors forward communication.
	commMult := 1.0
	if bwdFLOPs > 0 {
		commMult = 2
	}
	return fwd + r.comm, train + commMult*r.comm
}

// Kernel returns the compiled FLOPs model of the options' model and freeze.
func (p *Profiler) Kernel() *model.CostKernel { return &p.kernel }

// SampleForward is Price's forward seconds for one sample shape.
func (p *Profiler) SampleForward(mod model.Module, width int, s model.SampleShape) float64 {
	fwd, _ := p.Resolve(mod, width).Price(p.kernel.Fold(s))
	return fwd
}

// SampleTrain is Price's forward+backward seconds for one sample shape.
func (p *Profiler) SampleTrain(mod model.Module, width int, s model.SampleShape) float64 {
	_, train := p.Resolve(mod, width).Price(p.kernel.Fold(s))
	return train
}

// SampleCost prices a workload's data-heterogeneous compute — encoder
// plus generator train seconds at width 1 — the size Algorithm 1
// orders samples by and the re-planning controller measures drift in.
func (p *Profiler) SampleCost(w model.Workload) float64 {
	_, enc := p.rates[model.Encoder][0].Price(w)
	_, gen := p.rates[model.Generator][0].Price(w)
	return enc + gen
}

// Calibrate samples the corpus and records the mean sample shape; it
// also (re)builds the interpolation tables for every module and TP
// width. n is the number of profiling samples (§3's "subset of
// training data").
func (p *Profiler) Calibrate(corpus *data.Corpus, n int) error {
	if n <= 0 {
		return fmt.Errorf("profiler: need at least one calibration sample")
	}
	shapes := make([]model.SampleShape, n)
	for i := range shapes {
		shapes[i] = corpus.Sample(int64(i)).Shape()
	}
	return p.CalibrateShapes(shapes)
}

// CalibrateShapes rebuilds the calibrated profile from observed sample
// shapes — the runtime recalibration path: the re-planning controller
// feeds it the shapes training actually saw, so a drift-triggered plan
// search optimises for the live distribution instead of the ahead-of-
// time profile (§4.3 made continuous). Not safe to run concurrently
// with query methods; recalibrate a fresh profiler and share it
// read-only.
func (p *Profiler) CalibrateShapes(shapes []model.SampleShape) error {
	if len(shapes) == 0 {
		return fmt.Errorf("profiler: need at least one calibration sample")
	}
	p.meanShape = MeanShapeOf(shapes)
	p.calibrated = true
	p.tabulate()
	p.buildInterpolation()
	p.fp = p.computeFingerprint()
	return nil
}

// MeanShapeOf folds sample shapes into the calibration mean: the mean
// image count of mean-sized images plus the mean generation count.
// This is THE mean-shape definition — CalibrateShapes stores it and
// the re-planning controller measures drift against it, so both sides
// of the adaptive loop speak the same coordinates. Returns the zero
// shape for an empty input.
func MeanShapeOf(shapes []model.SampleShape) model.SampleShape {
	n := len(shapes)
	if n == 0 {
		return model.SampleShape{}
	}
	var totalImgTokens, totalImgs, totalGen int
	for _, s := range shapes {
		totalImgTokens += s.TotalImageTokens()
		totalImgs += len(s.ImageTokens)
		totalGen += s.GenImages
	}
	meanImgs := int(math.Round(float64(totalImgs) / float64(n)))
	if meanImgs < 1 {
		meanImgs = 1
	}
	perImage := totalImgTokens / max(totalImgs, 1)
	shape := model.SampleShape{GenImages: int(math.Round(float64(totalGen) / float64(n)))}
	for i := 0; i < meanImgs; i++ {
		shape.ImageTokens = append(shape.ImageTokens, perImage)
	}
	return shape
}

// MeanShape returns the calibrated average sample composition.
func (p *Profiler) MeanShape() model.SampleShape { return p.meanShape }

// CFwd returns the paper's C function: mean forward seconds per sample
// for the module at the given width, from the calibrated shape.
func (p *Profiler) CFwd(mod model.Module, width int) float64 {
	return p.SampleForward(mod, width, p.shapeOrDefault())
}

// CTrain returns the fwd+bwd variant of the C function, which the
// orchestration objective uses ("changing C_lm, C_me, and C_mg from
// forward time functions to the sum functions of forward and backward
// time", §4.2). The search tabulates it once per (module, width).
func (p *Profiler) CTrain(mod model.Module, width int) float64 {
	return p.SampleTrain(mod, width, p.shapeOrDefault())
}

func (p *Profiler) shapeOrDefault() model.SampleShape {
	if p.calibrated {
		return p.meanShape
	}
	return model.SampleShape{ImageTokens: []int{1024, 1024, 1024, 1024}, GenImages: 1}
}

// --- linear interpolation layer ---

// buildInterpolation evaluates trial workloads on a grid per module and
// TP width, mimicking the production profiler's benchmark trials. The
// encoder/generator grids step in half-image increments of the
// calibrated mean image size, because their cost functions are
// piecewise in whole images (a group of k GPUs finishes ceil(n/k)
// image-times); the backbone grid steps in sequence tokens.
func (p *Profiler) buildInterpolation() {
	per := float64(p.meanImageTokens())
	var modalityGrid []float64
	for k := 0.0; k <= 24; k += 0.5 {
		modalityGrid = append(modalityGrid, k*per)
	}
	seqGrid := []float64{0, 1024, 2048, 4096, 8192, 16384, 32768}
	for _, mod := range model.Modules {
		grid := modalityGrid
		if mod == model.Backbone {
			grid = seqGrid
		}
		for _, tp := range []int{1, 2, 4, 8} {
			key := interpKey{mod, tp}
			var pts []interpPoint
			for _, tokens := range grid {
				pts = append(pts, interpPoint{tokens: tokens, fwd: p.trialForward(mod, tp, tokens)})
			}
			p.interpTable[key] = pts
		}
	}
}

// trialForward runs one synthetic trial: a sample whose modality volume
// equals the given token count.
func (p *Profiler) trialForward(mod model.Module, tp int, tokens float64) float64 {
	shape := p.trialShape(mod, tokens)
	return p.SampleForward(mod, tp, shape)
}

func (p *Profiler) trialShape(mod model.Module, tokens float64) model.SampleShape {
	switch mod {
	case model.Encoder:
		// Split the token volume into mean-sized images.
		per := p.meanImageTokens()
		n := int(tokens) / per
		s := model.SampleShape{}
		for i := 0; i < n; i++ {
			s.ImageTokens = append(s.ImageTokens, per)
		}
		if rem := int(tokens) % per; rem > 0 {
			s.ImageTokens = append(s.ImageTokens, rem)
		}
		return s
	case model.Generator:
		// tokens proxy: generated images in units of mean image tokens.
		per := p.meanImageTokens()
		return model.SampleShape{GenImages: int(math.Round(tokens / float64(per)))}
	default:
		return model.SampleShape{}
	}
}

// InterpForward estimates forward time for a workload of the given
// modality-token volume by linear interpolation over the trial table —
// the estimation path the production manager uses instead of running
// the analytic model everywhere.
func (p *Profiler) InterpForward(mod model.Module, tp int, tokens float64) (float64, error) {
	pts, ok := p.interpTable[interpKey{mod, tp}]
	if !ok || len(pts) == 0 {
		return 0, fmt.Errorf("profiler: no trials for %v tp=%d (run Calibrate)", mod, tp)
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].tokens >= tokens })
	if i == 0 {
		return pts[0].fwd, nil
	}
	if i == len(pts) {
		// Extrapolate from the last segment.
		a, b := pts[len(pts)-2], pts[len(pts)-1]
		slope := (b.fwd - a.fwd) / (b.tokens - a.tokens)
		return b.fwd + slope*(tokens-b.tokens), nil
	}
	a, b := pts[i-1], pts[i]
	frac := (tokens - a.tokens) / (b.tokens - a.tokens)
	return a.fwd + frac*(b.fwd-a.fwd), nil
}
