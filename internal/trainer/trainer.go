// Package trainer is the DistTrain runtime of §3: it executes training
// iterations over an orchestration plan — fetch a global batch
// (disaggregated or co-located preprocessing), reorder it (Algorithms 1
// and 2), drive every data-parallel pipeline through the 1F1B schedule
// with per-microbatch heterogeneous stage times, synchronise gradients
// with ZeRO-1, step the optimizer, and checkpoint periodically. All GPU
// work is charged through the calibrated profiler and every checkpoint
// write and restore at DFS bandwidth; all control decisions
// (assignment, ordering, straggler propagation) are executed for real.
//
// A run is one goroutine: each iteration prepares its batch, simulates
// the DP ranks' pipelines inline in rank order and reduces them in that
// order. DistTrain's parallelism is across GPUs and disaggregated CPU
// nodes, which the runtime prices; it is not goroutines on the host.
// A live producer pool (PoolSource) fetches its ranks over TCP in rank
// order on the same goroutine. Scenario injection (internal/scenario) perturbs stage
// compute, the data path, and the fabric, and can kill the job to
// exercise checkpoint-restore recovery.
package trainer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
)

// Cost-model constants of the runtime's data path and inter-unit
// sends. Every caller runs the same values, so they are constants
// rather than Config fields.
const (
	// preprocessFetchLatency is the fixed per-iteration latency, in
	// seconds, of fetching preprocessed tensors from the disaggregated
	// CPU nodes.
	preprocessFetchLatency = 2e-3
	// asyncP2PExposed is the fraction of each inter-unit activation
	// transfer asynchronous sends leave on the critical path (§6);
	// synchronous sends always expose the full transfer.
	asyncP2PExposed = 0.2
	// colocOverlapCapacity is the fraction of pipeline time co-located
	// dataloader workers can hide preprocessing behind (§2.3, Figure
	// 17).
	colocOverlapCapacity = 0.5
	// colocInterference is the CPU-interference tax charged on whatever
	// co-located preprocessing does overlap with training.
	colocInterference = 0.15
	// syncOverlap is the fraction of gradient synchronisation hidden
	// behind backward compute (production overlapping, §9-cited works).
	// Typed, so 1-syncOverlap rounds the way the float64 field it
	// replaced did.
	syncOverlap float64 = 0.7
	// dfsWriteBps and dfsReadBps are the per-client bandwidths, in
	// bytes/s, of the distributed file system checkpoints go to (§3),
	// and dfsLatency its per-operation metadata latency in seconds.
	dfsWriteBps, dfsReadBps = 3e9, 5e9
	dfsLatency              = 2e-3
)

// Config describes one training run.
type Config struct {
	Spec   orchestrator.Spec
	Plan   *orchestrator.Plan
	Corpus *data.Corpus

	// Lease, when non-nil, scopes the run to the leased nodes of
	// Spec.Cluster instead of letting it implicitly own the whole
	// fleet: the runtime prices collectives, checkpoints and plans
	// against the lease's subcluster, and the fleet scheduler
	// (internal/fleet) may grow or shrink the lease mid-run through
	// Runtime.Resize. Nil runs standalone, as a lease covering every
	// node of Spec.Cluster.
	Lease *cluster.Lease
	// PlacementPricing, with a Lease, prices the run against the
	// lease's concrete placement (cluster.Lease.Placed — a fragmented
	// lease loses rail alignment) instead of its node count alone.
	// The fleet's placement-scoring schedulers set it; count-based
	// policies leave it off so equal-size leases price identically
	// wherever their nodes land.
	PlacementPricing bool

	// Reorder enables DistTrain's dual-level data reordering (§5); off,
	// samples are consumed in corpus order (the Megatron-LM baseline of
	// Figure 16).
	Reorder bool
	// DisaggregatedPreprocess moves preprocessing to dedicated CPU
	// nodes; off, the training nodes preprocess inline and stall (§2.3,
	// Figure 17).
	DisaggregatedPreprocess bool
	// AsyncP2P uses DistTrain's asynchronous inter-unit sends (§6);
	// off, Megatron-LM's synchronous batched send/receive exposes the
	// full transfer on the critical path.
	AsyncP2P bool
	// CheckpointEvery saves a checkpoint every n iterations (0 = off);
	// a write that outlasts the interval stalls training.
	CheckpointEvery int

	// Source overrides the batch/assignment front-end: when non-nil,
	// every iteration's per-rank sample assignment comes from a live
	// TCP producer pool instead of the synthetic corpus + Algorithm 1
	// path. The Corpus is still required (profiler calibration and
	// sample-shape recovery read it).
	Source *PoolSource
	// ProducerControl receives scenario producer-fail / producer-join
	// events, killing and restoring members of an in-process producer
	// fleet mid-run; nil (external producers) ignores those events.
	ProducerControl *preprocess.Fleet

	// Controller, when non-nil, closes the §4.3 adaptive loop at
	// runtime: it observes every iteration's signals and may hand the
	// run a new plan to apply at an iteration boundary as a costed
	// reconfiguration (internal/controller implements drift-triggered
	// re-planning). Nil runs the plan chosen ahead of time, unchanged.
	Controller Controller
	// GradientDim, when positive, accumulates the exact (wrap-around
	// int64) pseudo-gradient of every first-execution iteration's
	// global batch into Result.GradientSum — the §5 commutativity
	// witness, extended across failure rewinds and plan switches. 0
	// disables the accumulation.
	GradientDim int

	// Parallelism is inert (ignored): an iteration simulates its DP
	// ranks inline. Kept only for benchmark/ until a later benchmark
	// change deletes it.
	Parallelism int
	// Scenario injects timed perturbation events — stragglers,
	// preprocessing degradation, link congestion, node failures; nil
	// is the steady state.
	Scenario scenario.Scenario
	// Batches, when non-nil, shares resolved plans and prepared corpus
	// batches with the other runtimes on it (the fleet hands one to
	// every tenant of a run), unless the runtime has a Source or a
	// Scenario. A plan is resolved once per class: the *Plan, Corpus,
	// Spec.Profiler, Spec.GlobalBatch, leased cluster, Spec.Microbatch,
	// Reorder and AsyncP2P. An iteration is served from it only when,
	// besides, the runtime has no trial batches and at least one other
	// live runtime reads the same Corpus through the same Spec.Profiler
	// at the same Spec.GlobalBatch; every other iteration is prepared
	// privately. An entry is keyed by its first sample, DP width and
	// Reorder, is built once (a concurrent asker waits for it) into
	// slices no runtime owns and is never written after. A shared
	// batch's rank outcomes are simulated once per run key (the class,
	// the batch's first sample and whether the runtime traces) and are
	// just as immutable, so results and traces are byte-identical with
	// or without it.
	Batches *BatchCache
	// Trace, when non-nil, receives the run's execution timeline in
	// Chrome trace format (load in chrome://tracing or Perfetto).
	Trace *metrics.Trace
}

// DistTrainConfig returns the production configuration for a plan: all
// DistTrain techniques enabled.
func DistTrainConfig(spec orchestrator.Spec, plan *orchestrator.Plan, corpus *data.Corpus) Config {
	return Config{
		Spec: spec, Plan: plan, Corpus: corpus,
		Reorder:                 true,
		DisaggregatedPreprocess: true,
		AsyncP2P:                true,
	}
}

// MegatronConfig returns the monolithic baseline configuration: random
// (corpus) order, co-located preprocessing, synchronous sends.
func MegatronConfig(spec orchestrator.Spec, plan *orchestrator.Plan, corpus *data.Corpus) Config {
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.Reorder = false
	cfg.DisaggregatedPreprocess = false
	cfg.AsyncP2P = false
	return cfg
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Plan == nil {
		return errors.New("trainer: nil plan")
	}
	if c.Corpus == nil {
		return errors.New("trainer: nil corpus")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.GradientDim < 0 {
		return fmt.Errorf("trainer: GradientDim %d negative", c.GradientDim)
	}
	return nil
}

// IterationStats records one iteration.
type IterationStats struct {
	Index     int
	Breakdown metrics.Breakdown
	// BubbleFrac is the mean pipeline bubble fraction of the slowest DP
	// rank's pipeline.
	BubbleFrac float64
	// StragglerSpread is (max-min)/max pipeline time across DP ranks —
	// the intra-microbatch straggler penalty.
	StragglerSpread float64
	// FLOPs is model compute executed this iteration.
	FLOPs float64
	// MFU is this iteration's Model FLOPs Utilization.
	MFU float64
	// Perturbed marks iterations the scenario touched.
	Perturbed bool
}

// Recovery records one survived node failure.
type Recovery struct {
	// FailedAt is the iteration the failure interrupted.
	FailedAt int
	// ResumedFrom is the first iteration re-executed after restoring
	// the latest checkpoint (0 when no checkpoint existed).
	ResumedFrom int
	// Downtime is detection/restart plus the checkpoint restore read,
	// in simulated seconds.
	Downtime float64
}

// Result aggregates a run.
type Result struct {
	Strategy   string
	GPUs       int
	Iterations []IterationStats
	// MeanIterTime in seconds, MFU and TokensPerSec aggregated over all
	// iterations. Under failures, MFU and TokensPerSec count only
	// useful (non-re-executed) work over the total wall-clock including
	// downtime.
	MeanIterTime float64
	MFU          float64
	TokensPerSec float64
	// CheckpointsSaved counts the saves made: periodic and plan-switch.
	CheckpointsSaved int
	// Failures counts scenario-injected node failures survived;
	// ReExecutedIterations the iterations redone after restores, and
	// DowntimeSeconds the total detection/restart + restore time —
	// including the reconfiguration cost of controller plan switches.
	Failures             int
	ReExecutedIterations int
	DowntimeSeconds      float64
	// Recoveries records each failure in order.
	Recoveries []Recovery
	// PlanSwitches counts mid-run reconfigurations the re-planning
	// controller applied; Replans records each one in order. Their
	// downtime is included in DowntimeSeconds.
	PlanSwitches int
	Replans      []Replan
	// GradientSum is the exact wrap-around int64 gradient accumulation
	// over every first-execution iteration's global batch, populated
	// when Config.GradientDim > 0. Plans (and plan switches) permute
	// placement and order, never the commutative accumulation, so any
	// two runs over the same batches agree bit for bit.
	GradientSum []int64
}

// Runtime is one training run: the class it executes, the settings of
// the Config it was built from that no class holds, and the loop state
// of the run NewJob armed. Its methods are not safe for concurrent
// use, and Step runs on the caller's goroutine and starts none of its
// own; separate runtimes may run on separate goroutines.
type Runtime struct {
	// cls is the runtime's class, shared and never written: New and
	// every plan switch point it at the plan in force. It holds
	// everything of the Config a class keys on — the leased spec, the
	// plan, the corpus, Reorder and AsyncP2P — so the runtime reads
	// those from it alone.
	cls *class

	// The Config fields the run reads after New that no class holds.
	// batches is nil unless the runtime joined them.
	batches         *BatchCache
	trace           *metrics.Trace
	source          *PoolSource
	scenario        scenario.Scenario
	controller      Controller
	producers       *preprocess.Fleet
	checkpointEvery int
	disaggregated   bool
	// leased says the run holds a lease; Resize rescopes the class's
	// spec from base, the shared cluster, priced by placement when
	// placed (Config.PlacementPricing).
	leased, placed bool
	base           cluster.Cluster
	// grad accumulates Result.GradientSum when its Dim
	// (Config.GradientDim) is positive.
	grad gradientAccumulator

	// The armed run's checkpoint record: the newest saved step (-1
	// before the first save), that checkpoint's encoded size in bytes (an
	// 8-byte step and its tag) and the saves made. A save is priced, not
	// written.
	ckptStep, ckptBytes, ckptSaved int
	// trial (TrialMeanIterTime) replaces the corpus: i trains trial[i%len].
	trial [][]data.Sample
	// clock is the trace emission cursor in simulated seconds.
	clock float64
	// namedRanks tracks how many dp-rank trace lanes carry names, so a
	// plan switch that grows DP names only the new lanes.
	namedRanks int

	// Per-runtime hot-loop state: the front-end's workload slices and an
	// untraced iteration's outcome slots. All other scratch comes from
	// the process-wide pools (concurrent.go).
	prep     prepBuf
	outcomes []rankOutcome

	// The armed run (job.go): n iterations, i the next boundary, and
	// res the Result it fills, with the sums Finish aggregates.
	n, i                 int
	res                  *Result
	timeSum, usefulFlops float64
	// Iterations execute in order and a failure rewind only goes back,
	// so "has iteration i happened before" is a high-water mark, -1
	// before the first: maxExecuted is the highest iteration completed,
	// lastFailure the highest whose node failure fired, poolFired the
	// highest whose pool events fired. Fire-once events cover exactly
	// their Start iteration, so a replayed window re-fires nothing.
	maxExecuted, lastFailure, poolFired int
	finished                            bool
}

// New validates the config and builds a runtime. A leased config is
// rescoped first: the runtime's effective cluster becomes the lease's
// subcluster (or its placement-priced view under PlacementPricing),
// so a job on an n-node lease executes byte-identically to a
// standalone run on an n-node cluster. The config is validated when its
// class is resolved: a runtime of a resolved class reads nothing of
// cfg.Spec the class key does not hold (a resize scopes the class's
// spec), so only the lease and GradientDim are checked again.
func New(cfg Config) (*Runtime, error) {
	r := &Runtime{
		batches: cfg.Batches, trace: cfg.Trace, source: cfg.Source, scenario: cfg.Scenario,
		controller: cfg.Controller, producers: cfg.ProducerControl,
		checkpointEvery: cfg.CheckpointEvery, disaggregated: cfg.DisaggregatedPreprocess,
		grad: gradientAccumulator{Dim: cfg.GradientDim},
	}
	spec := &cfg.Spec
	if l := cfg.Lease; l != nil {
		r.leased, r.placed, r.base = true, cfg.PlacementPricing, cfg.Spec.Cluster
		if err := l.Validate(r.base); err != nil {
			return nil, err
		}
		leased := cfg.Spec.ForLease(r.base, *l, r.placed)
		spec = &leased
		if cfg.Plan != nil && cfg.Plan.TotalGPUs() > l.GPUs(r.base) {
			return nil, fmt.Errorf("trainer: plan wants %d GPUs, lease holds %d", cfg.Plan.TotalGPUs(), l.GPUs(r.base))
		}
	}
	if cfg.Source != nil || cfg.Scenario != nil {
		r.batches = nil // a live pool hands it batches, a scenario shifts them
	}
	cls, err := r.batches.class(classKey{
		plan: cfg.Plan, batchClass: batchClass{corpus: cfg.Corpus, prof: spec.Profiler, batch: spec.GlobalBatch},
		cluster: spec.Cluster, microbatch: int32(spec.Microbatch), reorder: cfg.Reorder, asyncP2P: cfg.AsyncP2P,
	}, spec, cfg.Validate)
	if err != nil {
		return nil, err
	}
	if cfg.GradientDim < 0 { // the one field Validate reads that no class key holds
		return nil, cfg.Validate()
	}
	if r.cls = cls; cls.live != nil {
		cls.live.Add(1)
	}
	if tr := r.trace; tr != nil {
		tr.NameProcess(0, "runtime")
		r.nameRankLanes(cfg.Plan.Modules[model.Backbone].Config.DP)
	}
	return r, nil
}

// nameRankLanes labels dp-rank trace lanes up to dp, naming each lane
// at most once across plan switches.
func (r *Runtime) nameRankLanes(dp int) {
	tr := r.trace
	if tr == nil {
		return
	}
	for ; r.namedRanks < dp; r.namedRanks++ {
		tr.NameProcess(r.namedRanks+1, "dp-rank "+strconv.Itoa(r.namedRanks))
	}
}

// Close leaves the batch cache.
func (r *Runtime) Close() {
	if r.batches != nil {
		r.cls.live.Add(-1)
		r.batches = nil
	}
}

// Run builds a runtime for cfg, executes n iterations and closes it;
// scenario-injected node failures recover from the latest checkpoint and re-execute the
// lost iterations.
func Run(cfg Config, n int) (*Result, error) {
	rt, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	return rt.Run(n)
}

// class is one plan resolved for execution under one leased spec: its
// stage geometry and every price the runtime reads of it. A BatchCache
// resolves it once for all the runtimes of its classKey, and a runtime
// that shares nothing resolves a private one; it is never written
// after, so the runtimes of a class point at one.
type class struct {
	classKey
	id   int               // its index in the BatchCache: a run key's class
	spec orchestrator.Spec // the leased spec
	live *atomic.Int64     // the batch class's live runtimes; nil when private
	own  atomic.Int64      // live, for its batch class's first class
	// stage geometry and prices of the plan
	stages int
	p2p    []float64
	// order is a rank's 1F1B op execution order, which a traced rank's
	// spans time: resolved by execOrder on first use
	order     []pipeline.Op
	orderOnce sync.Once
	costs     planCosts
	gpus      int
	// the serial phases' prices: exposed gradient sync, optimizer step;
	// and one full training state's checkpoint write and restore read
	gradSyncS, optimizerS, checkpointS, restoreS float64
}

// execOrder returns the class's op execution order.
func (c *class) execOrder() []pipeline.Op {
	c.orderOnce.Do(func() {
		dp := c.plan.Modules[model.Backbone].Config.DP
		c.order = pipeline.Order(c.stages, c.batch/dp/c.spec.Microbatch)
	})
	return c.order
}

// resolve derives k's class under its leased spec.
func resolve(k classKey, spec *orchestrator.Spec) *class {
	c := &class{classKey: k, spec: *spec, gpus: k.plan.TotalGPUs()}
	p, plan := spec.Profiler, k.plan
	lm := plan.Modules[model.Backbone].Config
	c.stages = 1 + lm.PP + 1
	c.p2p = c.buildP2P()
	mbs := float64(spec.Microbatch)
	cc := &c.costs
	for j, mod := range model.Modalities {
		mp := plan.Modules[mod]
		w := mp.Config.ModelParallelWidth()
		cc.rate[j], cc.scale[j] = p.Resolve(mod, w), float64(w)*float64(lm.DP)*mbs/float64(mp.GPUs())
	}
	fwdL, totL := p.Resolve(model.Backbone, lm.ModelParallelWidth()).Price(model.Workload{})
	cc.lmFwd = fwdL * mbs / float64(lm.PP)
	cc.lmBwd = (totL - fwdL) * mbs / float64(lm.PP)
	c.gradSyncS, c.optimizerS = c.gradSync(), c.optimizerStep()
	// One full training state, trainable parameters plus optimizer state,
	// streams from every GPU of its trainable modules: ZeRO-1 makes
	// their optimizer shards disjoint.
	var bytes float64
	clients := 0
	for _, mod := range model.Modules {
		if !p.Frozen(mod) {
			bytes += p.Kernel().Params(mod) * (model.BytesPerParam + model.BytesPerOptimState)
			clients += plan.Modules[mod].GPUs()
		}
	}
	if n := float64(clients); clients > 0 { // equal shards, in parallel
		c.checkpointS = dfsLatency + bytes/(dfsWriteBps*n)
		c.restoreS = dfsLatency + bytes/(dfsReadBps*n)
	}
	return c
}

// buildP2P prices the inter-stage activation transfers. Links between
// parallelism units ride the communication brokers over RDMA; LLM-
// internal links are plain pipeline sends. Asynchronous sends hide
// most of the transfer (§6); synchronous batched sends expose it all.
func (c *class) buildP2P() []float64 {
	spec := &c.spec
	bytesLM := float64(spec.Microbatch) * spec.Model.BoundaryBytes()
	cost := comm.CollectiveCost{
		BandwidthBps: spec.Cluster.CrossNodeBandwidthPerGPU(),
		Latency:      spec.Cluster.LinkLatency,
	}
	exposed := 1.0
	if c.asyncP2P {
		exposed = asyncP2PExposed
	}
	p2p := make([]float64, c.stages-1)
	for i := range p2p {
		p2p[i] = cost.P2P(bytesLM) * exposed
	}
	return p2p
}

// iterP2P returns the iteration's link costs: the plan's baseline,
// scaled by whatever congestion the scenario injects. The steady state
// reuses the shared slice so the unperturbed path allocates nothing.
func (r *Runtime) iterP2P(pert scenario.Perturbation) []float64 {
	f, p2p := pert.P2PFactor(), r.cls.p2p
	if f == 1 {
		return p2p
	}
	scaled := make([]float64, len(p2p))
	for i, v := range p2p {
		scaled[i] = v * f
	}
	return scaled
}

// planCosts is what pricing a microbatch reads of the profiler and the
// plan, resolved once per class: no query, lock or map per sample.
type planCosts struct {
	rate         [2]profiler.Rate // the modality modules', ordered like model.Modalities
	scale        [2]float64       // per-LLM-rank share of each modality module's pool
	lmFwd, lmBwd float64          // one LLM stage: fixed-length packed sequences (§2.3) price alike
}

// microbatchWorkInto fills caller-provided stage slices (len c.stages)
// with the per-stage fwd/bwd durations of one microbatch (one sample
// when M=1), charging each module's share of its workload through the
// plan's resolved rates and allocation ratios.
func (c *class) microbatchWorkInto(w model.Workload, fwd, bwd []float64) {
	cc := &c.costs
	for s := 1; s < c.stages-1; s++ {
		fwd[s] = cc.lmFwd
		bwd[s] = cc.lmBwd
	}
	for j, s := range [2]int{0, c.stages - 1} { // the encoder's and generator's stages
		f, tot := cc.rate[j].Price(w)
		fwd[s] = f * cc.scale[j]
		bwd[s] = (tot - f) * cc.scale[j]
	}
}

// assign distributes buf.work, the folded global batch, across dp
// ranks into buf.ranks: DistTrain's Algorithm 1 when balancing,
// contiguous blocks otherwise (the framework default, and how a live
// pool's already-assigned batch arrives). Each rank's samples are then
// grouped into K microbatches of M samples.
func (r *Runtime) assign(buf *prepBuf, dp int, balance bool) error {
	work := buf.work
	perRank := len(work) / dp
	if perRank*dp != len(work) {
		return fmt.Errorf("trainer: batch %d not divisible by DP %d", len(work), dp)
	}
	buf.ranks = slices.Grow(buf.ranks[:0], dp)
	if !balance {
		for d := 0; d < dp; d++ {
			buf.ranks = append(buf.ranks, work[d*perRank:(d+1)*perRank])
		}
		return nil
	}
	// Price every sample exactly once, then assign indices with a
	// pooled partitioner and gather the workloads rank by rank.
	sc := assignScratchPool.Get().(*assignScratch)
	defer assignScratchPool.Put(sc)
	sc.costs = slices.Grow(sc.costs[:0], len(work))[:len(work)]
	for i, w := range work {
		sc.costs[i] = r.cls.prof.SampleCost(w)
	}
	groups, err := sc.part.Assign(sc.costs, dp)
	if err != nil {
		return err
	}
	buf.flat = slices.Grow(buf.flat[:0], len(work))
	for _, g := range groups {
		n := len(buf.flat)
		for _, i := range g {
			buf.flat = append(buf.flat, work[i])
		}
		buf.ranks = append(buf.ranks, buf.flat[n:])
	}
	return nil
}

// gradSync returns the exposed gradient/parameter synchronisation time:
// each module reduce-scatters gradients and all-gathers parameters
// across its DP group, partially hidden behind backward compute.
func (c *class) gradSync() float64 {
	spec := &c.spec
	prof := spec.Profiler
	cost := comm.CollectiveCost{
		BandwidthBps: spec.Cluster.CrossNodeBandwidthPerGPU(),
		Latency:      spec.Cluster.LinkLatency,
	}
	worst := 0.0
	for _, mod := range model.Modules {
		if prof.Frozen(mod) {
			continue
		}
		mp := &c.plan.Modules[mod]
		params := prof.Kernel().Params(mod) // a replicated group's copies are whole
		if !mod.Replicated() {
			params /= float64(mp.Config.ModelParallelWidth() * mp.Config.PP)
		}
		t := comm.ZeRO1GradSync(cost, params, mp.Copies(mod))
		worst = math.Max(worst, t*(1-syncOverlap))
	}
	return worst
}

// optimizerStep prices the ZeRO-1 sharded Adam update: ~32 bytes of
// reads+writes per locally owned parameter, memory-bound.
func (c *class) optimizerStep() float64 {
	spec := &c.spec
	worst := 0.0
	for _, mod := range model.Modules {
		if spec.Profiler.Frozen(mod) {
			continue
		}
		shard := spec.Profiler.Kernel().Params(mod) / float64(c.plan.Modules[mod].GPUs())
		t := shard * 32 / spec.Cluster.GPU.MemoryBWBytes
		worst = math.Max(worst, t)
	}
	return worst
}
