package trainer

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/fanout"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/reorder"
	"disttrain/internal/scenario"
)

// This file is the concurrent iteration engine. One iteration splits
// into three stages:
//
//  1. front-end: fetch the global batch and run Algorithm 1's DP-rank
//     assignment — a pure function of the iteration index, which is
//     what lets the async data service compute it one iteration ahead;
//  2. rank workers: per DP rank, build microbatches, apply Algorithm 2
//     ordering, and simulate the exact 1F1B timeline — fanned out over
//     a bounded worker pool (Config.Parallelism);
//  3. reduce: fold the per-rank outcomes in rank order into the
//     iteration breakdown.
//
// Because every rank is evaluated independently and the reduce order
// is fixed, the concurrent engine returns results byte-identical to
// the sequential reference at any worker count — the same contract as
// the orchestrator's parallel plan search.
//
// What outlives what: a private corpus batch, its work and its ranks
// live in one of the runtime's two prepBufs until iteration i+2 is
// prepared, and its untraced rank outcomes in the runtime's slots until
// the next iteration refills them, so nothing else of an iteration
// escapes its Step unless copied — a controller gets its own copy of
// the batch (Observation.Batch). A traced outcome vector (fresh per
// private iteration) and a shared batch with its outcome vector (a
// BatchCache entry) are immutable and outlive the iteration: a trace's
// span block and every runtime reading them only read. A pooled scratch
// is held for one runRank or assign call and nothing backed by it
// escapes (a traced rank's ops are copied out).

// preparedBatch is the front-end's output for one iteration: the
// global batch, each sample's workload in batch order (the order
// iteration FLOPs sum in) and the same workloads gathered per DP rank.
// key is a shared batch's BatchCache key, zero for a private batch.
type preparedBatch struct {
	iter  int
	batch []data.Sample
	work  []model.Workload
	ranks [][]model.Workload
	err   error
	key   batchKey
}

// prepBuf backs one preparedBatch: iteration i reads prep[i&1] while
// the prefetch of i+1 (the one prepare ever outstanding) fills the
// other. batch holds a corpus batch's samples (a live source's or a
// trial's batch is theirs); ranks slices work itself when ranks own
// contiguous blocks of the batch, flat (work gathered rank-major) when
// Algorithm 1 assigned.
type prepBuf struct {
	batch      []data.Sample
	work, flat []model.Workload
	ranks      [][]model.Workload
}

// fold appends each sample's workload to dst: the one walk over a
// sample's subsequences, made where the batch enters the runtime.
func fold(dst []model.Workload, samples []data.Sample, k *model.CostKernel) []model.Workload {
	dst = slices.Grow(dst, len(samples))
	for i := range samples {
		var w model.Workload
		samples[i].AddTo(&w, k)
		dst = append(dst, w)
	}
	return dst
}

// prepare fetches, folds and assigns the global batch of one
// iteration: through Config.Source when set (a live producer pool hands
// the batch over already assigned, rank after rank), else from the
// synthetic corpus (or a trial's fixed batches) through Algorithm 1,
// read off Config.Batches when another runtime prepares the same corpus
// batch. Scenario workload-shift events transform a corpus batch before
// assignment, so Algorithm 1 balances the shifted costs — the drift the
// re-planning controller watches for; live pools own their
// preprocessing and see no scenario.
func (r *Runtime) prepare(iter int) preparedBatch {
	dp := r.cfg.Plan.Modules[model.Backbone].Config.DP
	buf := &r.prep[iter&1]
	p := preparedBatch{iter: iter}
	src := r.cfg.Source
	switch {
	case src != nil:
		if p.batch, p.err = src.Assign(iter, dp); p.err != nil {
			return p
		}
	case r.trial != nil:
		p.batch = r.trial[iter%len(r.trial)]
	default:
		if sp, ok := r.shared(iter, dp); ok {
			return sp
		}
		bs := r.cfg.Spec.GlobalBatch
		buf.batch = r.cfg.Corpus.AppendBatch(buf.batch[:0], int64(iter)*int64(bs), bs)
		p.batch = scenario.At(r.cfg.Scenario, iter).ShiftBatch(buf.batch)
	}
	buf.work = fold(buf.work[:0], p.batch, r.cfg.Spec.Profiler.Kernel())
	p.err = r.assign(buf, dp, r.cfg.Reorder && src == nil)
	p.work, p.ranks = buf.work, buf.ranks
	return p
}

// rankOutcome is one DP rank's pipeline execution.
type rankOutcome struct {
	iterTime float64
	bubble   float64
	// ops is the rank's full timeline, copied out only when tracing.
	ops []pipeline.Op
	err error
}

// rankScratch is one rank worker's reusable buffers: microbatch
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
// mutable state lives in the pooled scratch), so rank workers may run
// concurrently. When tracing, the timeline is copied into the
// outcome's ops; otherwise none is recorded.
func (r *Runtime) runRank(d int, work []model.Workload, p2p []float64, pert scenario.Perturbation) rankOutcome {
	cfg := &r.cfg
	m := cfg.Spec.Microbatch
	k := len(work) / m
	sc := rankScratchPool.Get().(*rankScratch)
	defer rankScratchPool.Put(sc)
	// Flat layout: k*stages fwd + k*stages bwd microbatch times, then
	// stages*k + stages*k simulator work rows.
	sc.buf = slices.Grow(sc.buf[:0], 4*k*r.stages)[:4*k*r.stages]
	sc.mbs = slices.Grow(sc.mbs[:0], k)[:k]
	sc.rows = slices.Grow(sc.rows[:0], 2*r.stages)[:2*r.stages]
	buf, mbs := sc.buf, sc.mbs
	for j := 0; j < k; j++ {
		// A microbatch of M samples: their workloads add up in sample
		// order.
		w := work[j*m]
		for _, o := range work[j*m+1 : (j+1)*m] {
			w.Add(o)
		}
		fwd := buf[2*j*r.stages : (2*j+1)*r.stages]
		bwd := buf[(2*j+1)*r.stages : (2*j+2)*r.stages]
		r.microbatchWorkInto(w, fwd, bwd)
		mbs[j] = reorder.Microbatch{Index: j, Fwd: fwd, Bwd: bwd}
	}
	if cfg.Reorder {
		vpp := cfg.Plan.Modules[model.Backbone].Config.VPP
		var err error
		mbs, err = sc.reo.InterReorderVPP(mbs, p2p, vpp)
		if err != nil {
			return rankOutcome{err: err}
		}
	}
	rows := pipeline.Work{
		Fwd:   sc.rows[:r.stages],
		Bwd:   sc.rows[r.stages:],
		P2P:   p2p,
		Rates: pert.RateSchedules(d, r.stages),
	}
	flat := buf[2*k*r.stages:]
	for s := 0; s < r.stages; s++ {
		rows.Fwd[s] = flat[s*k : (s+1)*k]
		rows.Bwd[s] = flat[(r.stages+s)*k : (r.stages+s+1)*k]
		for j, mb := range mbs {
			rows.Fwd[s][j] = mb.Fwd[s]
			rows.Bwd[s][j] = mb.Bwd[s]
		}
	}
	var res *pipeline.Result
	var err error
	if cfg.Trace != nil {
		res, err = sc.sim.Simulate(pipeline.OneFOneB, rows)
	} else {
		res, err = sc.sim.SimulateUntraced(rows)
	}
	if err != nil {
		return rankOutcome{err: err}
	}
	out := rankOutcome{iterTime: res.IterTime, bubble: res.MeanBubbleFraction()}
	if cfg.Trace != nil {
		out.ops = slices.Clone(res.Ops)
	}
	return out
}

// finishIteration is the deterministic reduce: it folds the per-rank
// outcome slots in rank order and prices the iteration's serial
// phases. Both the sequential reference and the concurrent engine end
// here, so their results agree bit for bit.
func (r *Runtime) finishIteration(p preparedBatch, pert scenario.Perturbation, outcomes []rankOutcome) (IterationStats, error) {
	cfg := &r.cfg
	spec := &cfg.Spec
	var bd metrics.Breakdown

	// Data arrival. Disaggregated preprocessing only pays the
	// (prefetched) tensor receive; the co-located stall is priced after
	// the pipeline time is known, because dataloader workers overlap
	// with training and only the overflow plus CPU interference is
	// exposed (§2.3, Figure 17). Scenario degradation scales the data
	// path either way.
	dp := cfg.Plan.Modules[model.Backbone].Config.DP
	perRank := len(p.batch) / dp
	ppFactor := pert.PreprocessFactor()
	colocatedCPU := 0.0
	if cfg.DisaggregatedPreprocess {
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
	if !cfg.DisaggregatedPreprocess {
		hidden := math.Min(colocatedCPU, colocOverlapCapacity*worstPipe)
		bd.PreprocessStall = (colocatedCPU - hidden) + colocInterference*hidden
	}

	// Gradient synchronisation (ZeRO-1) per module, concurrent on
	// disjoint GPU sets: the slowest exposed sync gates the iteration.
	bd.GradSync = r.gradSyncS

	// Optimizer step: memory-bound update of the local shard.
	bd.Optimizer = r.optimizerS

	// Checkpointing: a dedicated process writes asynchronously (§6), so
	// only a write that outlasts the interval is exposed.
	if cfg.CheckpointEvery > 0 && p.iter > 0 && p.iter%cfg.CheckpointEvery == 0 {
		r.saveCheckpoint(p.iter, "iter-")
		ckptSeconds := r.checkpointSeconds()
		budget := float64(cfg.CheckpointEvery) * worstPipe
		if ckptSeconds > budget {
			bd.CheckpointStall = ckptSeconds - budget
		}
	}

	flops := r.batchFLOPs(p.work)
	total := bd.Total()
	stats := IterationStats{
		Index:           p.iter,
		Breakdown:       bd,
		BubbleFrac:      worstBubble,
		StragglerSpread: (worstPipe - bestPipe) / math.Max(worstPipe, 1e-12),
		FLOPs:           flops,
		MFU:             metrics.MFU(flops, cfg.Plan.TotalGPUs(), spec.Cluster.GPU.PeakFLOPS, total),
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
	if r.cfg.Trace == nil {
		return
	}
	tr := r.cfg.Trace.Batch()
	defer tr.Done()
	bd := stats.Breakdown
	if bd.PreprocessStall > 0 {
		tr.Complete(tr.Label("preprocess"), tr.Label("data"), r.clock, bd.PreprocessStall)
	}
	pipeStart := r.clock + bd.PreprocessStall
	n, mbs := 0, 0
	for _, out := range outcomes {
		n, mbs = n+len(out.ops), max(mbs, len(out.ops)/(2*r.stages))
	}
	for kind := range r.opNames {
		for names := &r.opNames[kind]; len(*names) < mbs; {
			*names = append(*names, tr.Label(pipeline.OpKind(kind).String()+strconv.Itoa(len(*names))))
		}
	}
	names := r.opNames // only grows: the block keeps these slices
	tr.Spans(tr.Label("pipeline"), len(outcomes), n, func(span metrics.SpanFunc) {
		for d, out := range outcomes {
			for _, op := range out.ops {
				span(names[op.Kind][op.MB], d+1, op.Stage, pipeStart+op.Start, op.End-op.Start)
			}
		}
	})
	cur := pipeStart + bd.Pipeline
	runtimeCat := tr.Label("runtime")
	for i, dur := range [...]float64{bd.GradSync, bd.Optimizer, bd.CheckpointStall} {
		if dur > 0 {
			tr.Complete(tr.Label(serialPhases[i]), runtimeCat, cur, dur)
		}
		cur += dur
	}
}

// serialPhases names emitTrace's phases after the pipeline, in order.
var serialPhases = [...]string{"grad-sync", "optimizer", "checkpoint-stall"}

// workers resolves the rank-worker pool size.
func (r *Runtime) workers() int {
	if r.cfg.Parallelism >= 1 {
		return r.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// iteration executes one prepared iteration with the rank workers
// fanned out over a pool of the given size; one worker or fewer runs
// them inline on the calling goroutine — the pinned serial path.
func (r *Runtime) iteration(p preparedBatch, workers int) (IterationStats, error) {
	if p.err != nil {
		return IterationStats{}, p.err
	}
	pert := scenario.At(r.cfg.Scenario, p.iter)
	p2p := r.iterP2P(pert)
	if p.key.corpus != nil {
		return r.finishIteration(p, pert, r.sharedRun(p, p2p, pert, workers))
	}
	// Untraced, the outcome slots are reused across (serial) iterations;
	// a traced iteration's go to its trace, so it takes fresh ones.
	if r.cfg.Trace != nil {
		r.outcomes = nil
	}
	r.outcomes = slices.Grow(r.outcomes[:0], len(p.ranks))[:len(p.ranks)]
	r.runRanks(r.outcomes, p.ranks, p2p, pert, workers)
	return r.finishIteration(p, pert, r.outcomes)
}

// runRanks sets outcomes[d] to rank d's run over a worker pool.
func (r *Runtime) runRanks(outcomes []rankOutcome, ranks [][]model.Workload, p2p []float64, pert scenario.Perturbation, workers int) {
	fanout.Run(context.Background(), workers, len(ranks), func(d int) {
		outcomes[d] = r.runRank(d, ranks[d], p2p, pert)
	})
}

// RunIterationSequential is the single-threaded reference
// implementation, kept as the equivalence baseline for the concurrent
// engine (mirroring the planner's sequential reference): the
// concurrent path must return byte-identical stats at any worker
// count.
func (r *Runtime) RunIterationSequential(iter int) (IterationStats, error) {
	return r.iteration(r.prepare(iter), 1)
}

// Run executes n iterations on the concurrent engine and aggregates.
// The async data service prefetches iteration i+1's batch and
// Algorithm 1 assignment while iteration i trains; scenario-injected
// node failures trigger checkpoint-restore recovery with the lost
// iterations re-executed.
func (r *Runtime) Run(n int) (*Result, error) {
	return r.runLoop(n, true)
}

// RunSequential is the pinned serial counterpart of Run: no rank
// workers, no prefetch. Byte-identical results; the reference tests
// compare the concurrent engine against.
func (r *Runtime) RunSequential(n int) (*Result, error) {
	return r.runLoop(n, false)
}

// runLoop drives a Job to completion: the loop body lives in
// (*Job).Step so the fleet runtime can interleave many jobs over one
// shared cluster; a standalone run is simply the 1-job schedule.
func (r *Runtime) runLoop(n int, prefetch bool) (*Result, error) {
	j, err := r.newJob(n, prefetch)
	if err != nil {
		return nil, err
	}
	for !j.Done() {
		if err := j.Step(); err != nil {
			return nil, err
		}
	}
	return j.Finish(), nil
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
	return r.ckptStep + 1, readSeconds(float64(r.ckptBytes), 1)
}

// checkPlan reports whether a controller-proposed plan can execute
// under the runtime's spec.
func (r *Runtime) checkPlan(p *orchestrator.Plan) error {
	if p == nil {
		return fmt.Errorf("trainer: nil reconfiguration plan")
	}
	lm := p.Modules[model.Backbone].Config
	if lm.DP < 1 || lm.PP < 1 {
		return fmt.Errorf("trainer: reconfiguration plan has degenerate backbone config %v", lm.String())
	}
	if bs := r.cfg.Spec.GlobalBatch; bs%(lm.DP*r.cfg.Spec.Microbatch) != 0 {
		return fmt.Errorf("trainer: reconfiguration plan DP_lm=%d * M=%d does not divide BS=%d",
			lm.DP, r.cfg.Spec.Microbatch, bs)
	}
	return nil
}

// reconfigure applies a checked controller plan switch at the boundary
// before iteration iter: price the switch — a synchronous full
// checkpoint write under the old geometry plus a restore read under
// the new one, the recovery machinery without any lost work — record
// the checkpoint when checkpointing is on (so a later failure resumes
// past the switch), and rebuild the runtime's stage geometry.
func (r *Runtime) reconfigure(p *orchestrator.Plan, iter int) float64 {
	down := r.checkpointSeconds() // write: the outgoing geometry streams its state
	if r.cfg.CheckpointEvery > 0 && iter > 0 {
		r.saveCheckpoint(iter-1, "reconfig-")
	}
	r.cfg.Plan = p
	r.resolvePlan()
	r.nameRankLanes(p.Modules[model.Backbone].Config.DP)
	down += r.restoreSeconds() // read: the incoming geometry restores it
	return down
}
