package trainer

import (
	"sync"
	"sync/atomic"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/window"
)

// BatchCache shares what its runtimes resolve and prepare alike: each
// class once for every runtime of its classKey, and a corpus batch
// read, folded through the cost kernel and assigned by Algorithm 1 once
// per (iteration, DP width) for every runtime that would prepare it —
// the data tier's one build per iteration (§5), for runtimes without a
// live producer pool. A shared batch's ranks are simulated once per run
// key too: a rank's outcome is a pure function of its workloads and its
// runtime's class. Config.Batches says when an iteration shares. New
// counts a runtime that can among its batch class's live runtimes and
// Close uncounts it, so a lone tenant keeps the private, allocation-free
// path. The zero value is ready to use; it is safe for concurrent use.
type BatchCache struct {
	mu sync.Mutex
	// classes maps each classKey to its class, and a key of a batch
	// class alone to its first class, whose count is the batch class's.
	classes map[classKey]*class
	last    *class                               // the latest lookup's: comparing its key beats hashing one
	entries window.Once[batchKey, preparedBatch] // made with classes
	runs    window.Once[runKey, []rankOutcome]   // made with classes
	// builds counts the entries built and simulated the ranks the runs
	// simulated, the observables tests pin.
	builds, simulated atomic.Int64
}

// batchGeneration bounds one cache generation in samples held, so the
// cache holds between one and two of them. A batch is re-read by the
// other runtimes of its batch class, which step the same iterations as far
// apart as they were admitted: the re-read window is a span of the
// corpus, the one data.Corpus's memo keeps, so the generations match
// the memo's 2,048 samples (64 iterations of a 32-sample batch).
const batchGeneration = 2048

// batchClass is what two runtimes must share for their corpus batches
// to be one: the corpus they read, the profiler that prices them and
// the batch size that cuts them.
type batchClass struct {
	corpus *data.Corpus
	prof   *profiler.Profiler
	batch  int
}

// classKey is what resolution and runRank read of a runtime: the plan
// (by pointer: a plan cache hands out one per spec), the batch class,
// the leased cluster and microbatch (one plan under two specs is two
// classes) and two switches; the model is the profiler's. An int32
// microbatch keeps it at 128 bytes: a map stores a larger key out of
// line, at one allocation per insert.
type classKey struct {
	plan *orchestrator.Plan
	batchClass
	cluster           cluster.Cluster
	microbatch        int32
	reorder, asyncP2P bool
}

// batchKey identifies one prepared corpus batch: the batch class, the batch's
// first sample index, and the assignment's DP width and balancing. An
// entry is a pure function of its key.
type batchKey struct {
	batchClass
	first   int64
	dp      int
	balance bool
}

// runKey identifies one shared batch's rank outcomes: the class, which
// fixes the batch class, DP width, balancing and everything runRank
// reads of the runtime but whether it traces, and the batch's first
// sample.
type runKey struct {
	class  int
	first  int64
	traced bool
}

// class returns k's class. A class not yet resolved runs check first
// (New's validation; nil for a spec scoped from a resolved class's), so
// a config is validated once per class; a nil cache resolves a private
// class on every call.
func (c *BatchCache) class(k classKey, spec *orchestrator.Spec, check func() error) (*class, error) {
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.last == nil || c.last.classKey != k {
			c.last = c.classes[k]
		}
		if c.last != nil {
			return c.last, nil
		}
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}
	cls := resolve(k, spec)
	if c == nil {
		return cls, nil
	}
	if c.classes == nil {
		c.classes = map[classKey]*class{}
		c.entries = window.NewOnce[batchKey, preparedBatch](batchGeneration)
		c.runs = window.NewOnce[runKey, []rankOutcome](batchGeneration)
	}
	first := classKey{batchClass: k.batchClass}
	if c.classes[first] == nil {
		c.classes[first] = cls
	}
	cls.id, cls.live, c.classes[k] = len(c.classes), &c.classes[first].own, cls
	c.last = cls
	return cls, nil
}

// rescope returns the runtime's class of plan under spec, a scoping of
// its class's spec: only the plan and the leased cluster differ from
// its class's key. The spec was validated with the class, so there is
// no check and no error.
func (r *Runtime) rescope(spec *orchestrator.Spec, plan *orchestrator.Plan) *class {
	k := r.cls.classKey
	k.plan, k.cluster = plan, spec.Cluster
	cls, _ := r.batches.class(k, spec, nil)
	return cls
}

// shares reports whether the class's batch class has two or more live
// runtimes: whether its runtimes read shared batches.
func (c *class) shares() bool { return c.live != nil && c.live.Load() >= 2 }

// sharedRun returns the rank outcomes of p, a shared batch, under the
// runtime's plan: the first asker of the run key simulates them into a
// fresh slice, a concurrent asker waits for that run. The slice is
// immutable once returned, so it never becomes r.outcomes, which the
// private untraced path refills.
func (r *Runtime) sharedRun(p *preparedBatch, p2p []float64, pert scenario.Perturbation) []rankOutcome {
	c := r.batches
	bs := r.cls.batch
	k := runKey{class: r.cls.id, first: int64(p.iter) * int64(bs), traced: r.trace != nil}
	return c.runs.Get(k, bs, func() []rankOutcome {
		c.simulated.Add(int64(len(p.ranks)))
		out := make([]rankOutcome, len(p.ranks))
		r.runRanks(out, p.ranks, p2p, pert)
		return out
	})
}

// build prepares k's batch, with its FLOPs, into fresh slices that no
// runtime owns: with the entry, the samples, one workload backing for
// the batch-order work and the rank-major gather, and the rank headers
// are an entry's four allocations.
func (r *Runtime) build(k batchKey) preparedBatch {
	r.batches.builds.Add(1)
	n := k.batch
	if k.balance {
		n *= 2
	}
	backing := make([]model.Workload, 0, n)
	buf := prepBuf{
		batch: k.corpus.AppendBatch(make([]data.Sample, 0, k.batch), k.first, k.batch),
		work:  backing[:0:k.batch],
		flat:  backing[k.batch:k.batch:n],
		ranks: make([][]model.Workload, 0, k.dp),
	}
	var flops float64
	buf.work, flops = fold(buf.work, buf.batch, k.prof.Kernel())
	err := r.assign(&buf, k.dp, k.balance)
	return preparedBatch{batch: buf.batch, ranks: buf.ranks, flops: flops, err: err}
}
