// Package profiler is DistTrain's performance profiler (§3): it
// estimates each module's computation and communication time. Where
// the paper's profiler interpolates over measured benchmarking trials,
// this one evaluates the analytic cost model of internal/model on a
// calibrated GPU efficiency curve directly, for every workload.
//
// The profiler exposes the paper's three cost functions — C_me(TP),
// C_lm(TP) and C_mg(TP), the time of an entire module for one sample
// at a given tensor-parallel width, communication included — in the
// fwd+bwd form the orchestration objective uses (CTrain), and prices
// any one sample's forward and forward+backward seconds.
//
// Pricing is compiled, not re-derived per call. New compiles the model
// and freeze setting into a model.CostKernel and tabulates a Rate —
// achieved FLOP/s and exposed TP communication — per (module, width);
// both are fixed for the profiler's life, since neither reads the
// calibration. Rate.Price is the whole per-sample evaluation;
// SampleForward/SampleTrain wrap it, and the trainer prices every sample
// through rates it resolves once per plan.
package profiler

import (
	"fmt"
	"math"
	"math/bits"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/data"
	"disttrain/internal/model"
)

// Options configures a profiler. The rest of the deployment it prices
// is the paper's production one (§7.1): every module runs on the
// cluster's SKU, and the encoder and generator replicate the model
// across the GPUs of their group instead of TP-sharding it ("we
// replicate the modality encoder and generator across the GPUs within
// the TP group... whereas TP itself is not used"), so only the backbone
// communicates within a layer, with sequence parallelism on.
type Options struct {
	Cluster cluster.Cluster
	Model   model.MLLM
	Freeze  model.FreezeSpec
	// StepCCLOverlap is the fraction of tensor-parallel communication
	// hidden behind computation by StepCCL (Appendix A.1); 0 models the
	// baseline without overlap.
	StepCCLOverlap float64
}

// DefaultOptions returns the production configuration for a model on a
// cluster: full training with StepCCL enabled.
func DefaultOptions(cl cluster.Cluster, m model.MLLM) Options {
	return Options{
		Cluster:        cl,
		Model:          m,
		Freeze:         model.FullTraining,
		StepCCLOverlap: 0.85,
	}
}

// Profiler converts module workloads into seconds.
//
// Concurrency: query methods (CTrain, SampleForward, SampleTrain,
// SampleCost, Cost, Resolve, Kernel, MeanShape, Options, Model, Frozen,
// Params) and resolved Rates are safe for concurrent use — the plan
// search, the fleet's concurrently stepped tenants and the producers'
// builds issue them from many goroutines at once. Calibrate mutates the profiler's mean
// shape and must not run concurrently with queries. Calibrate once,
// then share.
type Profiler struct {
	opts   Options
	kernel model.CostKernel // compiled from (opts.Model, opts.Freeze)
	rates  [3][4]Rate       // resolve at widths 1, 2, 4, 8
	params [3]float64       // opts.Model.Params per module
	// meanShape is the corpus-calibrated average sample composition,
	// gathered by Calibrate (the manager "samples a subset of training
	// data to analyze the data distribution").
	meanShape  model.SampleShape
	calibrated bool
	// fp is the cached CalibrationFingerprint, recomputed whenever the
	// hashed state changes (New, CalibrateShapes). A plain field is safe
	// under the same contract as meanShape: calibration never races
	// queries.
	fp string
}

// New creates a profiler. Options must carry a valid cluster and model.
func New(opts Options) (*Profiler, error) {
	if err := opts.Cluster.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	if opts.StepCCLOverlap < 0 || opts.StepCCLOverlap > 1 {
		return nil, fmt.Errorf("profiler: StepCCLOverlap %g outside [0,1]", opts.StepCCLOverlap)
	}
	p := &Profiler{opts: opts, kernel: opts.Model.Compile(opts.Freeze)}
	for _, mod := range model.Modules {
		p.params[mod] = opts.Model.Params(mod)
		for i := range p.rates[mod] {
			p.rates[mod][i] = p.resolve(mod, 1<<i)
		}
	}
	p.fp = p.computeFingerprint()
	return p, nil
}

// Options returns the profiler's configuration.
func (p *Profiler) Options() Options { return p.opts }

// Model returns the profiled model in place, read-only: checking a
// spec's model against it copies nothing.
func (p *Profiler) Model() *model.MLLM { return &p.opts.Model }

// Frozen reports whether the options' freeze setting freezes mod.
func (p *Profiler) Frozen(mod model.Module) bool { return p.opts.Freeze.Frozen[mod] }

// Params returns the profiled model's parameter count of mod
// (model.MLLM.Params), computed once by New.
func (p *Profiler) Params(mod model.Module) float64 { return p.params[mod] }

// efficiency returns the fraction of peak FLOP/s a module achieves on
// one GPU. Values are calibrated so the end-to-end evaluation
// reproduces the paper's MFU bands (EXPERIMENTS.md): dense 8K-context
// transformer GEMMs near 0.68 of bf16 peak, degraded as tensor
// parallelism shrinks the backbone's per-GPU matrix shards; ViT's
// smaller GEMMs near 0.57 and the generator mix (UNet convolutions plus
// the memory-bound VAE) near 0.44, replicated at full kernel size on
// every GPU.
func efficiency(mod model.Module, width int) float64 {
	switch mod {
	case model.Encoder:
		return 0.57
	case model.Generator:
		return 0.44
	}
	return 0.68 * (1 - 0.02*math.Log2(float64(width)))
}

// tpComm returns the exposed tensor-parallel communication time for one
// sample across a whole module at the given TP width: the backbone's
// sequence-parallel collectives; replicated modules do not communicate
// within the group.
func (p *Profiler) tpComm(mod model.Module, tp int) float64 {
	if tp <= 1 || mod.Replicated() {
		return 0
	}
	m := &p.opts.Model
	cost := comm.CollectiveCost{
		BandwidthBps: p.opts.Cluster.GroupBandwidth(tp),
		Latency:      p.opts.Cluster.LinkLatency,
	}
	actBytes := float64(m.SeqLen) * float64(m.Backbone.HiddenSize) * 2
	per := comm.TPOverheadPerLayer(cost, actBytes, tp, p.opts.StepCCLOverlap)
	return per * float64(m.Backbone.Layers)
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

// Rate is a (module, width) pair resolved against the options:
// read-only, valid for the profiler's life.
type Rate struct {
	k     *model.CostKernel
	mod   model.Module
	width int
	flops float64 // width · peak FLOP/s · efficiency
	comm  float64 // exposed TP communication of one forward pass
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
		flops: float64(width) * p.opts.Cluster.GPU.PeakFLOPS * efficiency(mod, width),
		comm:  p.tpComm(mod, width),
	}
}

// Price returns C_mod(width) on one concrete workload — the forward
// seconds of the entire module's work on it over the group, communication
// included — and its forward+backward seconds, from one FLOPs evaluation.
func (r Rate) Price(w model.Workload) (fwd, train float64) {
	fwdFLOPs, bwdFLOPs := r.k.TrainFLOPs(r.mod, w)
	fwd = fwdFLOPs / r.flops
	train = (fwdFLOPs + bwdFLOPs) / r.flops
	if r.mod.Replicated() { // replicas take whole images: imbalanced when images % width != 0
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

// Cost is SampleCost of a corpus sample folded through the kernel: the
// size Algorithm 1 balances, wherever it runs.
func (p *Profiler) Cost(s data.Sample) float64 {
	var w model.Workload
	s.AddTo(&w, &p.kernel)
	return p.SampleCost(w)
}

// Calibrate samples the corpus and records the mean sample shape. n is
// the number of profiling samples (§3's "subset of training data").
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

// CTrain returns the fwd+bwd variant of the paper's C function — mean
// seconds per sample for the module at the given width, from the
// calibrated shape — which the orchestration objective uses
// ("changing C_lm, C_me, and C_mg from forward time functions to the
// sum functions of forward and backward time", §4.2). The search
// tabulates it once per (module, width).
func (p *Profiler) CTrain(mod model.Module, width int) float64 {
	return p.SampleTrain(mod, width, p.shapeOrDefault())
}

func (p *Profiler) shapeOrDefault() model.SampleShape {
	if p.calibrated {
		return p.meanShape
	}
	return model.SampleShape{ImageTokens: []int{1024, 1024, 1024, 1024}, GenImages: 1}
}
