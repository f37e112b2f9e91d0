package trainer

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/reorder"
	"disttrain/internal/scenario"
)

// This file is the iteration engine. One iteration runs on the caller's
// goroutine in three stages:
//
//  1. front-end: fetch the global batch, run Algorithm 1's DP-rank
//     assignment and sum its FLOPs — a pure function of the iteration
//     index, so a failure rewind re-prepares the identical batch;
//  2. ranks: per DP rank, in rank order, build microbatches, apply
//     Algorithm 2 ordering, and simulate the exact 1F1B timeline;
//  3. reduce: fold the per-rank outcomes in rank order into the
//     iteration breakdown.
//
// Disaggregated preprocessing (§5) keeps data work off the simulated
// training path; it is priced (finishIteration's PreprocessStall), not
// overlapped on the host.
//
// What outlives what: a private corpus batch, its work and its ranks
// live in the runtime's prepBuf until the next iteration is prepared,
// and its untraced rank outcomes in the runtime's slots until the next
// iteration refills them, so nothing else of an iteration
// escapes its Step unless copied — a controller gets its own copy of
// the batch (Observation.Batch). A traced outcome vector (fresh per
// private iteration) and a shared batch with its outcome vector (a
// BatchCache entry) are immutable and outlive the iteration: a trace's
// span block and every runtime reading them only read. A pooled scratch
// is held for one runRank or assign call and nothing backed by it
// escapes (a traced rank's spans are its own).

// preparedBatch is the front-end's output for one iteration: the
// global batch, its samples' workloads gathered per DP rank and their
// FLOPs. shared marks a BatchCache entry.
type preparedBatch struct {
	iter   int
	batch  []data.Sample
	ranks  [][]model.Workload
	flops  float64
	err    error
	shared bool
}

// prepBuf backs one private preparedBatch. batch holds a corpus
// batch's samples (a live source's or a trial's batch is theirs); ranks
// slices work itself when ranks own contiguous blocks of the batch,
// flat (work gathered rank-major) when Algorithm 1 assigned.
type prepBuf struct {
	batch      []data.Sample
	work, flat []model.Workload
	ranks      [][]model.Workload
}

// fold appends each sample's workload to dst and returns their model
// FLOPs, summed in batch order (the order that fixes the float sum): the
// one walk over a sample's subsequences, made where the batch enters the
// runtime.
func fold(dst []model.Workload, samples []data.Sample, k *model.CostKernel) ([]model.Workload, float64) {
	dst = slices.Grow(dst, len(samples))
	var flops float64
	for i := range samples {
		var w model.Workload
		samples[i].AddTo(&w, k)
		dst = append(dst, w)
		for _, mod := range model.Modules {
			fwd, bwd := k.TrainFLOPs(mod, w)
			flops += fwd + bwd
		}
	}
	return dst, flops
}

// prepare fetches, folds and assigns the global batch of one
// iteration: through Config.Source when set (a live producer pool hands
// the batch over already assigned, rank after rank), else from the
// synthetic corpus (or a trial's fixed batches) through Algorithm 1,
// read off Config.Batches when another runtime prepares the same corpus
// batch. Scenario workload-shift events transform a corpus batch before
// assignment, so Algorithm 1 balances the shifted costs — the drift the
// re-planning controller watches for; live pools own their
// preprocessing and see no scenario. pert is the scenario resolved at
// iter.
func (r *Runtime) prepare(iter int, pert scenario.Perturbation) preparedBatch {
	dp := r.cls.plan.Modules[model.Backbone].Config.DP
	buf := &r.prep
	p := preparedBatch{iter: iter}
	src := r.source
	switch {
	case src != nil:
		if p.batch, p.err = src.Assign(iter, dp); p.err != nil {
			return p
		}
	case r.trial != nil:
		p.batch = r.trial[iter%len(r.trial)]
	default:
		c, bs := r.cls, r.cls.batch
		if r.batches != nil && c.shares() {
			k := batchKey{batchClass: c.batchClass, first: int64(iter) * int64(bs), dp: dp, balance: c.reorder}
			p = r.batches.entries.Get(k, bs, func() preparedBatch { return r.build(k) })
			p.iter, p.shared = iter, true
			return p
		}
		buf.batch = c.corpus.AppendBatch(buf.batch[:0], int64(iter)*int64(bs), bs)
		p.batch = pert.ShiftBatch(buf.batch)
	}
	buf.work, p.flops = fold(buf.work[:0], p.batch, r.cls.prof.Kernel())
	p.err = r.assign(buf, dp, r.cls.reorder && src == nil)
	p.ranks = buf.ranks
	return p
}

// rankOutcome is one DP rank's pipeline execution.
type rankOutcome struct {
	iterTime float64
	bubble   float64
	// spans times the rank's ops, in its class's order; traced only.
	spans []pipeline.Span
	err   error
}

// rankScratch is one rank run's reusable buffers: microbatch
// headers, a flat float backing for their stage times and the
// simulator's work rows (headed by rows: fwd then bwd), and the
// Algorithm 2 and 1F1B scratch. assignScratch is the front-end's:
// Algorithm 1's partitioner and the per-sample cost column. Neither
// holds per-runtime state, so process-wide pools serve every runtime: a
// fleet tenant's first iteration finds buffers its predecessors warmed.
type rankScratch struct {
	mbs  []reorder.Microbatch
	buf  []float64
	rows [][]float64
	reo  reorder.Reorderer
	sim  pipeline.Simulator
}

type assignScratch struct {
	part  reorder.Partitioner
	costs []float64
}

var (
	rankScratchPool   = sync.Pool{New: func() any { return new(rankScratch) }}
	assignScratchPool = sync.Pool{New: func() any { return new(assignScratch) }}
)

// runRank executes one DP rank's pipeline: microbatch construction,
// Algorithm 2 ordering, exact 1F1B simulation — under the iteration's
// scenario perturbation. Pure with respect to runtime state (all
// mutable state lives in the pooled scratch), so runtimes on separate
// goroutines may run it at once. When tracing, the simulator
// times the ops into the outcome's own spans; otherwise none are
// recorded.
func (r *Runtime) runRank(d int, work []model.Workload, p2p []float64, pert scenario.Perturbation) rankOutcome {
	c := r.cls
	m, stages := c.spec.Microbatch, c.stages
	k := len(work) / m
	sc := rankScratchPool.Get().(*rankScratch)
	defer rankScratchPool.Put(sc)
	// Flat layout: k*stages fwd + k*stages bwd microbatch times, then
	// stages*k + stages*k simulator work rows.
	sc.buf = slices.Grow(sc.buf[:0], 4*k*stages)[:4*k*stages]
	sc.mbs = slices.Grow(sc.mbs[:0], k)[:k]
	sc.rows = slices.Grow(sc.rows[:0], 2*stages)[:2*stages]
	buf, mbs := sc.buf, sc.mbs
	for j := 0; j < k; j++ {
		// A microbatch of M samples: their workloads add up in sample
		// order.
		w := work[j*m]
		for _, o := range work[j*m+1 : (j+1)*m] {
			w.Add(o)
		}
		fwd := buf[2*j*stages : (2*j+1)*stages]
		bwd := buf[(2*j+1)*stages : (2*j+2)*stages]
		c.microbatchWorkInto(w, fwd, bwd)
		mbs[j] = reorder.Microbatch{Index: j, Fwd: fwd, Bwd: bwd}
	}
	if c.reorder {
		vpp := c.plan.Modules[model.Backbone].Config.VPP
		var err error
		mbs, err = sc.reo.InterReorderVPP(mbs, p2p, vpp)
		if err != nil {
			return rankOutcome{err: err}
		}
	}
	rows := pipeline.Work{
		Fwd:   sc.rows[:stages],
		Bwd:   sc.rows[stages:],
		P2P:   p2p,
		Rates: pert.RateSchedules(d, stages),
	}
	flat := buf[2*k*stages:]
	for s := 0; s < stages; s++ {
		rows.Fwd[s] = flat[s*k : (s+1)*k]
		rows.Bwd[s] = flat[(stages+s)*k : (stages+s+1)*k]
		for j, mb := range mbs {
			rows.Fwd[s][j] = mb.Fwd[s]
			rows.Bwd[s][j] = mb.Bwd[s]
		}
	}
	var spans []pipeline.Span
	if r.trace != nil {
		spans = make([]pipeline.Span, 2*k*stages)
	}
	res, err := sc.sim.Simulate(rows, spans)
	if err != nil {
		return rankOutcome{err: err}
	}
	return rankOutcome{iterTime: res.IterTime, bubble: res.MeanBubbleFraction(), spans: spans}
}

// finishIteration is the deterministic reduce: it folds the per-rank
// outcome slots in rank order and prices the iteration's serial
// phases.
func (r *Runtime) finishIteration(p *preparedBatch, pert scenario.Perturbation, outcomes []rankOutcome) (IterationStats, error) {
	c := r.cls
	spec := &c.spec
	var bd metrics.Breakdown

	// Data arrival. Disaggregated preprocessing only pays the
	// (prefetched) tensor receive; the co-located stall is priced after
	// the pipeline time is known, because dataloader workers overlap
	// with training and only the overflow plus CPU interference is
	// exposed (§2.3, Figure 17). Scenario degradation scales the data
	// path either way.
	dp := c.plan.Modules[model.Backbone].Config.DP
	perRank := len(p.batch) / dp
	ppFactor := pert.PreprocessFactor()
	colocatedCPU := 0.0
	if r.disaggregated {
		tokens := float64(perRank) * float64(spec.Model.SeqLen)
		bd.PreprocessStall = (tokens*2/spec.Cluster.CrossNodeBandwidthPerGPU() + preprocessFetchLatency) * ppFactor
	} else {
		for d := 0; d < dp; d++ {
			stall := data.NodeStallSeconds(p.batch[d*perRank : (d+1)*perRank])
			colocatedCPU = math.Max(colocatedCPU, stall)
		}
		colocatedCPU *= ppFactor
	}

	// Reduce the rank outcomes in rank order.
	worstPipe, bestPipe := 0.0, math.Inf(1)
	worstBubble := 0.0
	for d := range outcomes {
		if outcomes[d].err != nil {
			return IterationStats{}, outcomes[d].err
		}
		if outcomes[d].iterTime > worstPipe {
			worstPipe = outcomes[d].iterTime
			worstBubble = outcomes[d].bubble
		}
		bestPipe = math.Min(bestPipe, outcomes[d].iterTime)
	}
	bd.Pipeline = worstPipe

	// Co-located preprocessing: workers hide a bounded fraction of the
	// pipeline time; the rest of the CPU work stalls training, and
	// whatever does overlap still interferes with the host-side
	// training path.
	if !r.disaggregated {
		hidden := math.Min(colocatedCPU, colocOverlapCapacity*worstPipe)
		bd.PreprocessStall = (colocatedCPU - hidden) + colocInterference*hidden
	}

	// Gradient synchronisation (ZeRO-1) per module, concurrent on
	// disjoint GPU sets: the slowest exposed sync gates the iteration.
	bd.GradSync = c.gradSyncS

	// Optimizer step: memory-bound update of the local shard.
	bd.Optimizer = c.optimizerS

	// Checkpointing: a dedicated process writes asynchronously (§6), so
	// only a write that outlasts the interval is exposed.
	if every := r.checkpointEvery; every > 0 && p.iter > 0 && p.iter%every == 0 {
		r.saveCheckpoint(p.iter, "iter-")
		budget := float64(every) * worstPipe
		if c.checkpointS > budget {
			bd.CheckpointStall = c.checkpointS - budget
		}
	}

	total := bd.Total()
	stats := IterationStats{
		Index:           p.iter,
		Breakdown:       bd,
		BubbleFrac:      worstBubble,
		StragglerSpread: (worstPipe - bestPipe) / math.Max(worstPipe, 1e-12),
		FLOPs:           p.flops,
		MFU:             metrics.MFU(p.flops, c.gpus, spec.Cluster.GPU.PeakFLOPS, total),
		Perturbed:       !pert.Steady(),
	}
	r.emitTrace(stats, outcomes)
	r.clock += total
	return stats, nil
}

// emitTrace appends the iteration's timeline to the configured trace
// as one batch: the serial phases on pid 0, and every rank's pipeline
// ops on pid d+1 (tid = stage) as one span block over outcomes, which
// must never change after; all offset by the run's wall-clock cursor.
func (r *Runtime) emitTrace(stats IterationStats, outcomes []rankOutcome) {
	if r.trace == nil {
		return
	}
	order, stages := r.cls.execOrder(), r.cls.stages
	if n := len(outcomes[0].spans); n != len(order) { // a live pool's batch of another size
		order = pipeline.Order(stages, n/(2*stages))
	}
	names := opNames(len(order) / (2 * stages))
	tr := r.trace.Batch()
	defer tr.Done()
	bd := stats.Breakdown
	if bd.PreprocessStall > 0 {
		tr.Complete(labelPreprocess, labelData, r.clock, bd.PreprocessStall)
	}
	pipeStart := r.clock + bd.PreprocessStall
	tr.Spans(labelPipeline, len(outcomes), len(outcomes)*len(order), func(span metrics.SpanFunc) {
		for d, out := range outcomes {
			for i, sp := range out.spans {
				op := order[i]
				span(names[op.Kind][op.MB], d+1, op.Stage, pipeStart+sp.Start, sp.End-sp.Start)
			}
		}
	})
	cur := pipeStart + bd.Pipeline
	for i, dur := range [...]float64{bd.GradSync, bd.Optimizer, bd.CheckpointStall} {
		if dur > 0 {
			tr.Complete(serialPhases[i], labelRuntime, cur, dur)
		}
		cur += dur
	}
}

// The labels emitTrace records, interned once per process: the serial
// phases after the pipeline, in order, and their categories.
var (
	serialPhases                = [...]metrics.Label{metrics.Intern("grad-sync"), metrics.Intern("optimizer"), metrics.Intern("checkpoint-stall")}
	labelRuntime, labelPipeline = metrics.Intern("runtime"), metrics.Intern("pipeline")
	labelPreprocess, labelData  = metrics.Intern("preprocess"), metrics.Intern("data")
)

// opLabels names the pipeline ops of every runtime, F<mb> and B<mb> by
// kind and microbatch. It only grows, so a copy is never rewritten.
var opLabels struct {
	sync.Mutex
	names [2][]metrics.Label
}

// opNames returns the op names of at least mbs microbatches.
func opNames(mbs int) [2][]metrics.Label {
	opLabels.Lock()
	defer opLabels.Unlock()
	for kind := range opLabels.names {
		for names := &opLabels.names[kind]; len(*names) < mbs; {
			*names = append(*names, metrics.Intern(pipeline.OpKind(kind).String()+strconv.Itoa(len(*names))))
		}
	}
	return opLabels.names
}

// iteration executes one prepared iteration under pert, the scenario
// resolved at its index, its ranks inline in rank order.
func (r *Runtime) iteration(p *preparedBatch, pert scenario.Perturbation) (IterationStats, error) {
	if p.err != nil {
		return IterationStats{}, p.err
	}
	p2p := r.iterP2P(pert)
	if p.shared {
		return r.finishIteration(p, pert, r.sharedRun(p, p2p, pert))
	}
	// Untraced, the outcome slots are reused across iterations; a traced
	// iteration's go to its trace, so it takes fresh ones.
	if r.trace != nil {
		r.outcomes = nil
	}
	r.outcomes = slices.Grow(r.outcomes[:0], len(p.ranks))[:len(p.ranks)]
	r.runRanks(r.outcomes, p.ranks, p2p, pert)
	return r.finishIteration(p, pert, r.outcomes)
}

// runRanks sets outcomes[d] to rank d's run.
func (r *Runtime) runRanks(outcomes []rankOutcome, ranks [][]model.Workload, p2p []float64, pert scenario.Perturbation) {
	for d := range ranks {
		outcomes[d] = r.runRank(d, ranks[d], p2p, pert)
	}
}

// Run executes n iterations on the calling goroutine and aggregates;
// scenario-injected node failures trigger checkpoint-restore recovery
// with the lost iterations re-executed. The loop body lives in Step so
// the fleet runtime can interleave many runs over one shared cluster;
// a standalone run is simply the 1-job schedule.
func (r *Runtime) Run(n int) (*Result, error) {
	if _, err := r.NewJob(n); err != nil {
		return nil, err
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Finish(), nil
}

// saveCheckpoint records a checkpoint of step, tagged prefix+step.
// Saves are monotone in step — a failure resumes past the newest step
// and a plan switch saves the step before it — so the last save is the
// newest.
func (r *Runtime) saveCheckpoint(step int, prefix string) {
	r.ckptStep = step
	r.ckptBytes = 8 + len(prefix) + len(strconv.Itoa(step))
	r.ckptSaved++
}

// recoverFromFailure finds the resume point after a node failure: the
// step after the newest checkpoint, and the time to read it back. The
// paper's dedicated checkpoint process (§6) survives training-node
// failures, so every save made is there to restore. Without
// checkpointing (or before the first save) training restarts from
// iteration 0.
func (r *Runtime) recoverFromFailure() (resume int, restoreSeconds float64) {
	if r.ckptStep < 0 {
		return 0, 0
	}
	return r.ckptStep + 1, dfsLatency + float64(r.ckptBytes)/dfsReadBps
}

// checkPlan reports whether a plan can execute under spec.
func checkPlan(spec *orchestrator.Spec, p *orchestrator.Plan) error {
	if p == nil {
		return fmt.Errorf("trainer: nil reconfiguration plan")
	}
	lm := p.Modules[model.Backbone].Config
	if lm.DP < 1 || lm.PP < 1 {
		return fmt.Errorf("trainer: reconfiguration plan has degenerate backbone config %v", lm.String())
	}
	if bs := spec.GlobalBatch; bs%(lm.DP*spec.Microbatch) != 0 {
		return fmt.Errorf("trainer: reconfiguration plan DP_lm=%d * M=%d does not divide BS=%d",
			lm.DP, spec.Microbatch, bs)
	}
	return nil
}

// reconfigure applies a checked plan switch onto cls at the boundary
// before iteration iter: price the switch — a synchronous full
// checkpoint write under the old geometry plus a restore read under
// the new one, the recovery machinery without any lost work — record
// the checkpoint when checkpointing is on (so a later failure resumes
// past the switch), and point the runtime at the new class.
func (r *Runtime) reconfigure(cls *class, iter int) float64 {
	down := r.cls.checkpointS // write: the outgoing geometry streams its state
	if r.checkpointEvery > 0 && iter > 0 {
		r.saveCheckpoint(iter-1, "reconfig-")
	}
	r.cls = cls
	r.nameRankLanes(cls.plan.Modules[model.Backbone].Config.DP)
	down += cls.restoreS // read: the incoming geometry restores it
	return down
}
