// Package disttrain is a Go reproduction of "DistTrain: Addressing
// Model and Data Heterogeneity with Disaggregated Training for
// Multimodal Large Language Models" (Zhang et al., SIGCOMM 2025).
//
// DistTrain trains multimodal LLMs — modality encoder, LLM backbone and
// modality generator — with two disaggregation techniques:
//
//   - disaggregated model orchestration (§4) gives each module its own
//     GPU allocation and parallelism strategy, chosen by an adaptive
//     algorithm that solves the per-strategy convex subproblems exactly;
//   - disaggregated data preprocessing (§5) moves decode/resize/pack
//     work to dedicated CPU nodes and exploits the position to reorder
//     samples — Algorithm 1 balances data-parallel groups, Algorithm 2
//     fills 1F1B pipeline intervals — without touching convergence
//     semantics.
//
// This package is the public facade: it wires the calibrated cost
// model, the planners, and the training runtime together. GPU kernels
// are simulated by a production-calibrated analytic model, and so is
// the brokered traffic between modules; scheduling, reordering,
// preprocessing and checkpointing execute for real.
//
// Quickstart:
//
//	spec, corpus, err := disttrain.NewSpec(disttrain.MLLM9B(), 12, 128)
//	plan, err := disttrain.PlanDistTrain(spec)
//	result, err := disttrain.Train(disttrain.NewTrainConfig(spec, plan, corpus), 5)
//	fmt.Printf("MFU %.1f%%\n", 100*result.MFU)
package disttrain

import (
	"errors"
	"fmt"
	"strings"

	"disttrain/internal/cluster"
	"disttrain/internal/controller"
	"disttrain/internal/data"
	"disttrain/internal/experiments"
	"disttrain/internal/fleet"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// Re-exported core types. The internal packages carry the full APIs;
// these aliases are the supported surface.
type (
	// MLLM is a multimodal model: encoder + projectors + backbone +
	// generator (+ frozen VAE).
	MLLM = model.MLLM
	// FreezeSpec selects which modules are frozen (§7.3).
	FreezeSpec = model.FreezeSpec
	// Corpus is the synthetic LAION-400M-like dataset.
	Corpus = data.Corpus
	// Spec is an orchestration problem: cluster + model + batch +
	// calibrated profiler.
	Spec = orchestrator.Spec
	// Plan is a complete orchestration decision for the three modules.
	Plan = orchestrator.Plan
	// SearchOptions tunes the parallel plan-search engine (worker
	// count, per-candidate observer) behind a PlanCache.
	SearchOptions = orchestrator.SearchOptions
	// TrainConfig configures the training runtime.
	TrainConfig = trainer.Config
	// TrainResult aggregates a training run's measurements.
	TrainResult = trainer.Result
	// Scenario injects timed perturbation events (stragglers, link
	// congestion, preprocessing degradation, node failures) into a
	// training run; see ParseScenario for the CLI grammar.
	Scenario = scenario.Scenario
	// Trace accumulates a run's Chrome-trace-format timeline.
	Trace = metrics.Trace
	// ExperimentTable is one regenerated paper table/figure.
	ExperimentTable = experiments.Table
	// PreprocessConfig parameterises one disaggregated-preprocessing
	// producer (batch geometry, reordering, worker pool, readahead).
	PreprocessConfig = preprocess.Config
	// ProducerFleet runs N in-process producers; set as the trainer's
	// ProducerControl, scenario producer-fail / producer-join events
	// kill and restore its members mid-run.
	ProducerFleet = preprocess.Fleet
	// PreprocessService is the consumer side of disaggregated
	// preprocessing: it load-balances every tenant's (iteration, rank)
	// fetches across N producers with deterministic assignment, health
	// tracking and failover, weighted fair queueing, per-tenant
	// admission quotas and partitioned caches. PreprocessTenant is one
	// tenant's fetch handle on it — a single trainer is the only tenant
	// of its own service.
	PreprocessService       = preprocess.Service
	PreprocessServiceConfig = preprocess.ServiceConfig
	PreprocessTenant        = preprocess.Tenant
	PreprocessTenantConfig  = preprocess.TenantConfig
	// PoolMetrics collects pool fetch latency, failovers, rejections
	// and cache hit rate; its Snapshot method prints them.
	PoolMetrics = metrics.PoolStats
	// TrainController is the runtime's re-planning seam: it observes
	// every iteration's signals and may hand the run a new plan at an
	// iteration boundary (TrainConfig.Controller).
	TrainController = trainer.Controller
	// ReplanController is the drift-detecting TrainController: it
	// recalibrates the profiler from observed samples, re-runs the §4.3
	// search concurrently with training, trial-scores the winner under
	// the runtime cost model, and switches plans at deterministic
	// iteration boundaries.
	ReplanController = controller.Controller
	// ControllerConfig parameterises a ReplanController (drift
	// threshold, observation window).
	ControllerConfig = controller.Config
	// FleetConfig drives a multi-tenant fleet run: shared cluster, job
	// submissions, placement policy, fleet-scope scenario, plan cache.
	FleetConfig = fleet.Config
	// FleetJobSpec is one submission: a training template plus its
	// scheduling envelope (iterations, node range, arrival round).
	FleetJobSpec = fleet.JobSpec
	// FleetResult aggregates a fleet run: rounds, plan-cache traffic,
	// the merged trace and one JobResult per tenant.
	FleetResult = fleet.Result
	// FleetScheduler decides admission order, lease sizing and
	// placement for a fleet run (FleetConfig.Policy): FleetFairShare,
	// or any built-in resolved by name with ParseFleetPolicy.
	FleetScheduler = fleet.Scheduler
	// FleetClass is a job's priority class (low, normal, high); the
	// priority scheduler orders, preempts and ages by it.
	FleetClass = fleet.Class
	// FleetPreprocessConfig attaches the fleet-shared disaggregated
	// preprocessing tier to a fleet run (FleetConfig.Preprocess).
	FleetPreprocessConfig = fleet.PreprocessConfig
	// PlanCache is the fingerprint-keyed, singleflight plan-search
	// cache fleets share: K identical specs pay for one §4.3 search.
	// Built with NewPersistentPlanCache it is also durable — plans
	// survive the process and warm-start searches at new lease sizes.
	PlanCache = orchestrator.PlanCache
	// PlanTicket is a handle on one asynchronous PlanCache request:
	// Wait blocks for the coalesced search, Publish makes the settled
	// result visible to warm-seed and settled-read surfaces.
	PlanTicket = orchestrator.PlanTicket
	// PlanStore is the durable key-value seam a persistent PlanCache
	// sits on: atomic last-write-wins puts, and corrupt or torn
	// entries read as misses, never as payloads.
	PlanStore = store.Store
)

// FleetFairShare is the elastic fair-share scheduler: tenants are
// sized toward an equal share of the healthy fleet, shrink to admit a
// starved queue head and grow back into freed capacity.
var FleetFairShare = fleet.FairShare

// FleetSchedulerNames lists the built-in scheduler names, sorted.
func FleetSchedulerNames() []string { return fleet.SchedulerNames() }

// Model presets of the paper's evaluation (§7).
func MLLM9B() MLLM  { return model.MLLM9B() }
func MLLM15B() MLLM { return model.MLLM15B() }
func MLLM72B() MLLM { return model.MLLM72B() }

// ModelByName resolves a CLI model name (9b, 15b or 72b, case
// insensitive, with or without the mllm- prefix) to its preset.
func ModelByName(name string) (MLLM, error) {
	switch strings.ToLower(name) {
	case "9b", "mllm-9b":
		return MLLM9B(), nil
	case "15b", "mllm-15b":
		return MLLM15B(), nil
	case "72b", "mllm-72b":
		return MLLM72B(), nil
	}
	return MLLM{}, fmt.Errorf("unknown model %q (want 9b, 15b or 72b)", name)
}

// Freeze settings of §7.3; NewSpec is full training.
var (
	AllFrozen     = model.AllFrozen
	EncoderOnly   = model.EncoderOnly
	LLMOnly       = model.LLMOnly
	GeneratorOnly = model.GeneratorOnly
)

// FreezeByName resolves a CLI freeze-setting name: full, all-frozen,
// encoder-only, llm-only or generator-only.
func FreezeByName(name string) (FreezeSpec, error) {
	for _, f := range append([]FreezeSpec{model.FullTraining}, model.FrozenSettings()...) {
		if f.Name == name {
			return f, nil
		}
	}
	return FreezeSpec{}, fmt.Errorf("unknown freeze setting %q", name)
}

// NewSpec assembles a calibrated orchestration spec: a production
// cluster of the given node count, the model, the global batch size,
// a profiler calibrated on the synthetic corpus, and full training.
// Use NewSpecFrozen for the §7.3 settings.
func NewSpec(m MLLM, nodes, globalBatch int) (Spec, *Corpus, error) {
	return NewSpecFrozen(m, nodes, globalBatch, model.FullTraining)
}

// NewSpecFrozen is NewSpec with an explicit freeze setting.
func NewSpecFrozen(m MLLM, nodes, globalBatch int, freeze FreezeSpec) (Spec, *Corpus, error) {
	cl := cluster.Production(nodes)
	opts := profiler.DefaultOptions(cl, m)
	opts.Freeze = freeze
	p, err := profiler.New(opts)
	if err != nil {
		return Spec{}, nil, err
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		return Spec{}, nil, err
	}
	if err := p.Calibrate(corpus, 300); err != nil {
		return Spec{}, nil, err
	}
	return Spec{
		Cluster:     cl,
		Model:       m,
		GlobalBatch: globalBatch,
		Microbatch:  1,
		Profiler:    p,
		VPP:         1,
	}, corpus, nil
}

// PlanDistTrain runs the adaptive disaggregated model orchestration
// (§4.3) and returns the optimal plan. The strategy enumeration runs
// on the parallel search engine with default options; the chosen plan
// is identical at any parallelism level.
func PlanDistTrain(s Spec) (*Plan, error) { return orchestrator.PlanDistTrain(s) }

// PlanMegatron returns the monolithic Megatron-LM baseline plan (§2.1).
func PlanMegatron(s Spec) (*Plan, error) { return orchestrator.PlanMegatron(s) }

// PlanDistMM returns the DistMM* baseline plan (§7.2).
func PlanDistMM(s Spec) (*Plan, error) { return orchestrator.PlanDistMM(s) }

// NewTrainConfig returns the production DistTrain configuration: data
// reordering, disaggregated preprocessing and asynchronous inter-unit
// sends all enabled.
func NewTrainConfig(spec Spec, plan *Plan, corpus *Corpus) TrainConfig {
	return trainer.DistTrainConfig(spec, plan, corpus)
}

// NewMegatronTrainConfig returns the monolithic baseline runtime
// configuration.
func NewMegatronTrainConfig(spec Spec, plan *Plan, corpus *Corpus) TrainConfig {
	return trainer.MegatronConfig(spec, plan, corpus)
}

// Train executes n iterations under the configuration and aggregates
// MFU, throughput and per-iteration breakdowns. The runtime is the
// concurrent engine: per-DP-rank pipeline workers on a bounded pool
// (TrainConfig.Parallelism) with the batch/assignment front-end
// prefetched one iteration ahead; results are byte-identical to the
// sequential reference (trainer.Runtime.RunSequential) at any worker
// count. Scenario-injected node failures recover from the latest DFS
// checkpoint and re-execute the lost iterations.
func Train(cfg TrainConfig, n int) (*TrainResult, error) {
	rt, err := trainer.New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	return rt.Run(n)
}

// PreprocessConfigFor derives the producer configuration matching a
// training configuration: same corpus, batch geometry from the spec,
// DP size and pipeline stage count from the plan, reordering as
// configured. Producers built from it serve batches the trainer's
// PoolSource can consume directly.
func PreprocessConfigFor(cfg TrainConfig) (PreprocessConfig, error) {
	if cfg.Plan == nil {
		return PreprocessConfig{}, errors.New("disttrain: config has no plan")
	}
	lm := cfg.Plan.Modules[model.Backbone].Config
	return PreprocessConfig{
		Source:         cfg.Corpus,
		GlobalBatch:    cfg.Spec.GlobalBatch,
		DPSize:         lm.DP,
		Microbatch:     cfg.Spec.Microbatch,
		Reorder:        cfg.Reorder,
		PipelineStages: 1 + lm.PP + 1,
		Readahead:      1,
	}, nil
}

// NewPreprocessService builds the preprocessing consumer over a set
// of producers: register tenants with Service.Register (one for a
// single trainer) and point each training configuration at its handle
// with UsePreprocessPool.
func NewPreprocessService(cfg PreprocessServiceConfig) (*PreprocessService, error) {
	return preprocess.NewService(cfg)
}

// StartProducerFleet launches n in-process preprocessing producers on
// random loopback ports.
func StartProducerFleet(cfg PreprocessConfig, n int) (*ProducerFleet, error) {
	return preprocess.StartFleet(cfg, n)
}

// UsePreprocessPool points a training configuration's batch front-end
// at a tenant handle on a live preprocessing service: microbatches
// come over TCP with failover instead of from the synthetic corpus
// path.
func UsePreprocessPool(cfg *TrainConfig, tenant *PreprocessTenant) {
	cfg.Source = &trainer.PoolSource{Pool: tenant, Samples: cfg.Corpus}
	cfg.DisaggregatedPreprocess = true
}

// FleetPreprocessFor derives the shared-tier configuration for a fleet
// whose jobs share tmpl's corpus and batch geometry: n producers, each
// serving tenant-keyed fetches at the tenant's own DP width.
// Reordering is off — the producer's Algorithm 2 interval model is
// plan-dependent, and tenants on elastic leases have no single plan.
func FleetPreprocessFor(tmpl TrainConfig, n int) *FleetPreprocessConfig {
	return &FleetPreprocessConfig{
		Producers: n,
		Server: PreprocessConfig{
			Source:      tmpl.Corpus,
			GlobalBatch: tmpl.Spec.GlobalBatch,
			DPSize:      1,
			Microbatch:  tmpl.Spec.Microbatch,
			Readahead:   1,
		},
	}
}

// NewReplanController builds the drift-detecting re-planning
// controller for a training configuration: attach it with
// UseReplanController (or set TrainConfig.Controller directly) to
// close the §4.3 adaptive loop at runtime. cfg.Train should be the
// same configuration the run executes (it is the trial-evaluation
// template); zero-valued tuning fields take the documented defaults.
func NewReplanController(cfg ControllerConfig) (*ReplanController, error) {
	return controller.New(cfg)
}

// UseReplanController wires a controller into a training
// configuration.
func UseReplanController(cfg *TrainConfig, ctrl TrainController) {
	cfg.Controller = ctrl
}

// RunFleet executes a multi-tenant fleet run: jobs are admitted in
// FIFO order, placed on the shared cluster through explicit node
// leases, elastically resized under the configured policy, and driven
// concurrently — one training iteration per job per scheduling round,
// fanned out over a bounded worker pool. Results and the merged fleet
// trace are deterministic at any worker count; a 1-job fleet is
// byte-identical to Train on the same cluster.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// NewPlanCache builds a shared plan-search cache; pass it to several
// FleetConfigs (or use one fleet's private cache implicitly) so
// identical specs across tenants pay for a single plan search.
func NewPlanCache(opts SearchOptions) *PlanCache { return orchestrator.NewPlanCache(opts) }

// NewPersistentPlanCache builds a plan cache written through to a
// durable store: plans survive the process, a later cache instance
// serves them with zero searches, and misses warm-start the §4.3
// search from the incumbent plan of a neighbouring lease size —
// without ever changing the chosen plan. FleetConfig.PlanCacheDir is
// the one-line way to get one inside a fleet run.
func NewPersistentPlanCache(opts SearchOptions, st PlanStore) *PlanCache {
	return orchestrator.NewPersistentPlanCache(opts, st)
}

// NewDiskPlanStore opens (creating if needed) an on-disk PlanStore
// rooted at dir: one integrity-checked entry file per fingerprint,
// written atomically, corrupt entries skipped with a warning on read.
func NewDiskPlanStore(dir string) (PlanStore, error) { return store.OpenDisk(dir) }

// ParseFleetPolicy resolves a policy name (fifo, fair-share or
// priority) to its FleetScheduler. "fair" is accepted as an alias for
// "fair-share".
func ParseFleetPolicy(s string) (FleetScheduler, error) {
	if s == "fair" {
		s = "fair-share"
	}
	if sched, ok := fleet.LookupScheduler(s); ok {
		return sched, nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (registered: %v)", s, fleet.SchedulerNames())
}

// ParseFleetClass validates a priority-class name ("" means normal).
func ParseFleetClass(s string) (FleetClass, error) { return fleet.ParseClass(s) }

// ParseScenario builds a Scenario from the CLI grammar shared with the
// -scenario flag: semicolon-separated `kind:key=value,...` events —
// e.g. `straggler:iters=2-5,rank=0,factor=2.5; failure:iter=6`,
// `workload-shift:iters=4-9,factor=3`,
// `producer-fail:iter=2,producer=1`,
// the fleet-scope events `job-arrive:iter=2,job=1`,
// `job-depart:iter=5,job=0`, `node-fail:iter=3,node=2`,
// `node-join:iter=6,node=2`, `priority-arrive:iter=2,job=1,class=high`,
// `preempt-storm:iter=3,job=0,class=high,count=3`
// (FleetConfig.Scenario), or the
// seeded generator `random-stragglers:seed=7,ranks=8,prob=0.3,max=3`.
func ParseScenario(spec string) (Scenario, error) { return scenario.Parse(spec) }

// NewTrace returns an empty execution-timeline collector; attach it to
// TrainConfig.Trace and write it out with its WriteJSON method after
// training (chrome://tracing / Perfetto format).
func NewTrace() *Trace { return metrics.NewTrace() }

// Experiment regenerates one paper table/figure by ID (fig3, fig5,
// fig13..fig19, fig22, table2, table3). quick shrinks workloads for
// smoke runs.
func Experiment(id string, quick bool) (*ExperimentTable, error) {
	fn, ok := experiments.Registry[id]
	if !ok {
		return nil, fmt.Errorf("disttrain: unknown experiment %s", id)
	}
	scale := experiments.Full
	if quick {
		scale = experiments.Quick
	}
	return fn(scale)
}

// ExperimentIDs lists the regenerable experiments in paper order.
func ExperimentIDs() []string { return append([]string(nil), experiments.Order...) }
