// Package trainer is the DistTrain runtime of §3: it executes training
// iterations over an orchestration plan — fetch a global batch
// (disaggregated or co-located preprocessing), reorder it (Algorithms 1
// and 2), drive every data-parallel pipeline through the 1F1B schedule
// with per-microbatch heterogeneous stage times, synchronise gradients
// with ZeRO-1, step the optimizer, and asynchronously checkpoint to the
// DFS. All GPU work is charged through the calibrated profiler; all
// control decisions (assignment, ordering, straggler propagation) are
// executed for real.
//
// The runtime is a concurrent, event-driven engine: a batch/assignment
// front-end (prefetched one iteration ahead by the async data service),
// per-DP-rank pipeline workers on a bounded pool, and a deterministic
// reduce that keeps results byte-identical to the pinned sequential
// reference (RunIterationSequential / RunSequential) at any worker
// count — the same engineering contract as the orchestrator's parallel
// plan search. Scenario injection (internal/scenario) perturbs stage
// compute, the data path, and the fabric, and can kill the job to
// exercise checkpoint-restore recovery.
package trainer

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/data"
	"disttrain/internal/dfs"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
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
	// (*Job).Resize. Nil is the historical standalone behaviour —
	// equivalent to a lease covering every node of Spec.Cluster.
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
	// CheckpointEvery saves a checkpoint every n iterations (0 = off) to
	// a simulated DFS of the runtime's own.
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
	// PoolStats, when non-nil alongside a live producer pool, is
	// snapshotted into every controller Observation so failover and
	// rejection counts can contribute to drift detection.
	PoolStats *metrics.PoolStats
	// GradientDim, when positive, accumulates the exact (wrap-around
	// int64) pseudo-gradient of every first-execution iteration's
	// global batch into Result.GradientSum — the §5 commutativity
	// witness, extended across failure rewinds and plan switches. 0
	// disables the accumulation.
	GradientDim int

	// Parallelism bounds the concurrent runtime's per-DP-rank pipeline
	// worker pool; values < 1 mean GOMAXPROCS. The results are
	// byte-identical at any value (pinned by test against the
	// sequential reference).
	Parallelism int
	// Scenario injects timed perturbation events — stragglers,
	// preprocessing degradation, link congestion, node failures; nil
	// is the steady state.
	Scenario scenario.Scenario
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
func (c Config) Validate() error {
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
	// the latest DFS checkpoint (0 when no checkpoint existed).
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
	// CheckpointsSaved counts asynchronous checkpoints that reached the
	// DFS.
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

// Runtime executes iterations for a fixed configuration. Its methods
// are not safe for concurrent use — the concurrency lives inside the
// engine, not across callers.
type Runtime struct {
	cfg  Config
	ckpt *dfs.CheckpointManager
	// trial (TrialMeanIterTime) replaces the corpus: i trains trial[i%len].
	trial [][]data.Sample
	// base is the shared cluster a leased run was scoped out of; the
	// zero value (standalone runs) is never read.
	base cluster.Cluster
	// stage geometry and prices of cfg.Plan, set by resolvePlan
	stages   int
	llmFirst int // index of first LLM stage
	genStage int
	p2p      []float64
	costs    planCosts
	// clock is the trace emission cursor in simulated seconds.
	clock float64
	// namedRanks tracks how many dp-rank trace lanes carry names, so a
	// plan switch that grows DP names only the new lanes.
	namedRanks int

	// Per-runtime hot-loop state: the front-end's double-buffered
	// workload slices and the per-iteration outcome slots. All other
	// scratch comes from the process-wide pools (concurrent.go).
	prep     [2]prepBuf
	outcomes []rankOutcome
	// opLabels caches the fwd/bwd trace event names per microbatch
	// index, as labels of cfg.Trace.
	opLabels [2][]metrics.Label
}

// New validates the config and builds a runtime. A leased config is
// rescoped first: the runtime's effective cluster becomes the lease's
// subcluster (or its placement-priced view under PlacementPricing),
// so a job on an n-node lease executes byte-identically to a
// standalone run on an n-node cluster.
func New(cfg Config) (*Runtime, error) {
	base := cfg.Spec.Cluster
	if cfg.Lease != nil {
		if err := cfg.Lease.Validate(base); err != nil {
			return nil, err
		}
		lease := *cfg.Lease // defensive copy: Resize swaps the pointer
		cfg.Lease = &lease
		cfg.Spec = cfg.Spec.ForLease(base, lease, cfg.PlacementPricing)
		if cfg.Plan != nil && cfg.Plan.TotalGPUs() > lease.GPUs(base) {
			return nil, fmt.Errorf("trainer: plan wants %d GPUs, lease holds %d", cfg.Plan.TotalGPUs(), lease.GPUs(base))
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg, base: base}
	r.llmFirst = 1
	r.resolvePlan()
	if cfg.CheckpointEvery > 0 {
		r.ckpt = dfs.NewCheckpointManager(dfs.New())
	}
	if tr := r.cfg.Trace; tr != nil {
		tr.NameProcess(0, "runtime")
		r.nameRankLanes(cfg.Plan.Modules[model.Backbone].Config.DP)
	}
	return r, nil
}

// nameRankLanes labels dp-rank trace lanes up to dp, naming each lane
// at most once across plan switches.
func (r *Runtime) nameRankLanes(dp int) {
	tr := r.cfg.Trace
	if tr == nil {
		return
	}
	for d := r.namedRanks; d < dp; d++ {
		tr.NameProcess(d+1, fmt.Sprintf("dp-rank %d", d))
	}
	if dp > r.namedRanks {
		r.namedRanks = dp
	}
}

// Close releases the checkpoint writer.
func (r *Runtime) Close() {
	if r.ckpt != nil {
		r.ckpt.Close()
	}
}

// Run builds a runtime for cfg, executes n iterations on the
// concurrent engine and closes it: results are byte-identical to the
// sequential reference (Runtime.RunSequential) at any worker count, and
// scenario-injected node failures recover from the latest DFS
// checkpoint and re-execute the lost iterations.
func Run(cfg Config, n int) (*Result, error) {
	rt, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	return rt.Run(n)
}

// buildP2P prices the inter-stage activation transfers. Links between
// parallelism units ride the communication brokers over RDMA; LLM-
// internal links are plain pipeline sends. Asynchronous sends hide
// most of the transfer (§6); synchronous batched sends expose it all.
func (r *Runtime) buildP2P() []float64 {
	spec := &r.cfg.Spec
	m := spec.Model
	bytesLM := float64(spec.Microbatch) * float64(m.SeqLen) * float64(m.Backbone.HiddenSize) * 2
	cost := comm.CollectiveCost{
		BandwidthBps: spec.Cluster.CrossNodeBandwidthPerGPU(),
		Latency:      spec.Cluster.LinkLatency,
	}
	exposed := 1.0
	if r.cfg.AsyncP2P {
		exposed = asyncP2PExposed
	}
	p2p := make([]float64, r.stages-1)
	for i := range p2p {
		p2p[i] = cost.P2P(bytesLM) * exposed
	}
	return p2p
}

// iterP2P returns the iteration's link costs: the plan's baseline,
// scaled by whatever congestion the scenario injects. The steady state
// reuses the shared slice so the unperturbed path allocates nothing.
func (r *Runtime) iterP2P(pert scenario.Perturbation) []float64 {
	f := pert.P2PFactor()
	if f == 1 {
		return r.p2p
	}
	scaled := make([]float64, len(r.p2p))
	for i, v := range r.p2p {
		scaled[i] = v * f
	}
	return scaled
}

// planCosts is what pricing a microbatch reads of the profiler and the
// plan, resolved once per plan: no query, lock or map per sample.
type planCosts struct {
	enc, gen       profiler.Rate
	scaleE, scaleG float64 // per-LLM-rank share of the encoder / generator pool
	lmFwd, lmBwd   float64 // one LLM stage: fixed-length packed sequences (§2.3) price alike
}

// resolvePlan derives everything the runtime caches of cfg.Plan; New
// and reconfigure, the two places the plan is set, call it.
func (r *Runtime) resolvePlan() {
	spec, plan := &r.cfg.Spec, r.cfg.Plan
	p := spec.Profiler
	lm := plan.Modules[model.Backbone].Config
	r.stages = 1 + lm.PP + 1
	r.genStage = r.stages - 1
	r.p2p = r.buildP2P()

	mbs := float64(spec.Microbatch)
	edge := func(mod model.Module) (profiler.Rate, float64) {
		mp := plan.Modules[mod]
		w := mp.Config.ModelParallelWidth()
		return p.Resolve(mod, w), float64(w) * float64(lm.DP) * mbs / float64(mp.GPUs())
	}
	c := &r.costs
	c.enc, c.scaleE = edge(model.Encoder)
	c.gen, c.scaleG = edge(model.Generator)
	fwdL, totL := p.Resolve(model.Backbone, lm.ModelParallelWidth()).Price(model.Workload{})
	c.lmFwd = fwdL * mbs / float64(lm.PP)
	c.lmBwd = (totL - fwdL) * mbs / float64(lm.PP)
}

// microbatchWorkInto fills caller-provided stage slices (len r.stages)
// with the per-stage fwd/bwd durations of one microbatch (one sample
// when M=1), charging each module's share of its workload through the
// plan's resolved rates and allocation ratios.
func (r *Runtime) microbatchWorkInto(w model.Workload, fwd, bwd []float64) {
	c := &r.costs
	fwdE, totE := c.enc.Price(w)
	fwd[0] = fwdE * c.scaleE
	bwd[0] = (totE - fwdE) * c.scaleE
	for s := r.llmFirst; s < r.genStage; s++ {
		fwd[s] = c.lmFwd
		bwd[s] = c.lmBwd
	}
	fwdG, totG := c.gen.Price(w)
	fwd[r.genStage] = fwdG * c.scaleG
	bwd[r.genStage] = (totG - fwdG) * c.scaleG
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
	// Price every sample exactly once, then partition and rebalance
	// over indices with a pooled partitioner and gather the workloads
	// rank by rank.
	sc := assignScratchPool.Get().(*assignScratch)
	defer assignScratchPool.Put(sc)
	sc.costs = slices.Grow(sc.costs[:0], len(work))[:len(work)]
	for i, w := range work {
		sc.costs[i] = r.cfg.Spec.Profiler.SampleCost(w)
	}
	groups, err := sc.part.Partition(sc.costs, dp)
	if err != nil {
		return err
	}
	// The LPT partition balances load but may leave groups of unequal
	// cardinality; rebalance counts while preserving the size ordering
	// (each rank must own exactly K*M samples for synchronous 1F1B).
	groups = sc.part.Rebalance(groups, perRank, sc.costs)
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
func (r *Runtime) gradSync() float64 {
	spec := &r.cfg.Spec
	freeze := spec.Profiler.Options().Freeze
	cost := comm.CollectiveCost{
		BandwidthBps: spec.Cluster.CrossNodeBandwidthPerGPU(),
		Latency:      spec.Cluster.LinkLatency,
	}
	worst := 0.0
	for _, mp := range r.cfg.Plan.Modules {
		if freeze.Frozen(mp.Module) {
			continue
		}
		params := spec.Model.Params(mp.Module) / float64(mp.Config.ModelParallelWidth()*mp.Config.PP)
		dp := mp.Config.DP
		if mp.Replicated {
			dp = mp.GPUs() / mp.Config.PP
			params = spec.Model.Params(mp.Module)
		}
		t := comm.ZeRO1GradSync(cost, params, dp)
		worst = math.Max(worst, t*(1-syncOverlap))
	}
	return worst
}

// optimizerStep prices the ZeRO-1 sharded Adam update: ~32 bytes of
// reads+writes per locally owned parameter, memory-bound.
func (r *Runtime) optimizerStep() float64 {
	spec := &r.cfg.Spec
	freeze := spec.Profiler.Options().Freeze
	worst := 0.0
	for _, mp := range r.cfg.Plan.Modules {
		if freeze.Frozen(mp.Module) {
			continue
		}
		shard := spec.Model.Params(mp.Module) / float64(mp.GPUs())
		t := shard * 32 / spec.Cluster.GPU.MemoryBWBytes
		worst = math.Max(worst, t)
	}
	return worst
}

// stateBytes returns the bytes of one full training state — trainable
// parameters plus optimizer state — and the GPUs that stream it.
// ZeRO-1 makes optimizer shards disjoint across every GPU of a module,
// so all of a trainable module's GPUs transfer their own shards in
// parallel.
func (r *Runtime) stateBytes() (bytes float64, clients int) {
	spec := &r.cfg.Spec
	freeze := spec.Profiler.Options().Freeze
	for _, mp := range r.cfg.Plan.Modules {
		if freeze.Frozen(mp.Module) {
			continue
		}
		bytes += spec.Model.Params(mp.Module) * (model.BytesPerParam + model.BytesPerOptimState)
		clients += mp.GPUs()
	}
	return bytes, clients
}

// checkpointSeconds prices one full checkpoint write to the DFS.
func (r *Runtime) checkpointSeconds() float64 {
	bytes, writers := r.stateBytes()
	if writers == 0 {
		return 0
	}
	return dfs.WriteSeconds(bytes, writers)
}

// restoreSeconds prices reading one full training state back from the
// DFS — the recovery (and plan-switch) restore path.
func (r *Runtime) restoreSeconds() float64 {
	bytes, readers := r.stateBytes()
	if readers == 0 {
		return 0
	}
	return dfs.ReadSeconds(bytes, readers)
}

// batchFLOPs sums the model FLOPs executed for the batch under the
// freeze setting, from the kernel that priced its stage times — sample
// by sample in batch order, the order that fixes the float sum.
func (r *Runtime) batchFLOPs(work []model.Workload) float64 {
	k := r.cfg.Spec.Profiler.Kernel()
	var total float64
	for _, w := range work {
		for _, mod := range model.Modules {
			fwd, bwd := k.TrainFLOPs(mod, w)
			total += fwd + bwd
		}
	}
	return total
}
