package trainer

import (
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/profiler"
)

// BatchCache shares the corpus front-end among runtimes: a batch read,
// folded through the cost kernel and assigned by Algorithm 1 once per
// (iteration, DP width) serves every runtime that would prepare the
// same one — the data tier's one build per iteration (§5), for runtimes
// without a live producer pool. Config.Batches says when an iteration
// shares. New registers a runtime that can under its class and Close
// removes it, so a lone tenant keeps the private, allocation-free path.
// The zero value is ready to use; it is safe for concurrent use.
type BatchCache struct {
	mu   sync.Mutex
	live map[batchClass]int
	// cur takes new entries and prev, the generation before it, is still
	// read; once cur holds batchGeneration samples it becomes prev and
	// the old prev is dropped, as in data.Corpus's memo.
	cur, prev map[batchKey]*batchEntry
	held      int // samples held by cur
	// builds counts the entries built, the observable tests pin.
	builds int
}

// batchGeneration bounds one cache generation in samples held, so the
// cache holds between one and two of them.
const batchGeneration = 2048

// batchClass is what two runtimes must share for their corpus batches
// to be one: the corpus they read, the profiler that prices them and
// the batch size that cuts them.
type batchClass struct {
	corpus *data.Corpus
	prof   *profiler.Profiler
	batch  int
}

// batchKey identifies one prepared corpus batch: the class, the batch's
// first sample index, and the assignment's DP width and balancing. An
// entry is a pure function of its key.
type batchKey struct {
	batchClass
	first   int64
	dp      int
	balance bool
}

// batchEntry is one cached batch, built by the runtime that inserted
// it; every other reader waits on ready, so concurrent first requests
// build it once.
type batchEntry struct {
	ready sync.WaitGroup
	batch preparedBatch
}

// addLive adds d (+1 at New, -1 at Close) to the class's live runtimes.
func (c *BatchCache) addLive(class batchClass, d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		c.live = map[batchClass]int{}
	}
	if c.live[class] += d; c.live[class] == 0 {
		delete(c.live, class)
	}
}

// entry returns k's entry, nil while k's class has fewer than two live
// runtimes. On a miss it inserts an empty entry the caller must build
// and mark ready (fresh).
func (c *BatchCache) entry(k batchKey) (e *batchEntry, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live[k.batchClass] < 2 {
		return nil, false
	}
	if e = c.cur[k]; e == nil {
		e = c.prev[k]
	}
	if e != nil {
		return e, false
	}
	if c.held >= batchGeneration {
		c.cur, c.prev = c.prev, c.cur
		clear(c.cur)
		c.held = 0
	}
	if c.cur == nil {
		c.cur = map[batchKey]*batchEntry{}
	}
	e = new(batchEntry)
	e.ready.Add(1)
	c.cur[k] = e
	c.held += k.batch
	c.builds++
	return e, true
}

// joinBatches registers r on cfg.Batches when its corpus batches can be
// shared: no live pool hands it batches and no scenario shifts them.
// New calls it; Close undoes it.
func (r *Runtime) joinBatches() {
	c := r.cfg.Batches
	if c == nil || r.cfg.Source != nil || r.cfg.Scenario != nil {
		return
	}
	r.batches = c
	r.class = batchClass{corpus: r.cfg.Corpus, prof: r.cfg.Spec.Profiler, batch: r.cfg.Spec.GlobalBatch}
	c.addLive(r.class, 1)
}

// shared returns iteration iter's corpus batch, assigned over dp ranks,
// from the cache — building it on a miss — or ok false when the runtime
// prepares privately: it is not registered, or its class has fewer than
// two live runtimes.
func (r *Runtime) shared(iter, dp int) (p preparedBatch, ok bool) {
	if r.batches == nil {
		return p, false
	}
	bs := r.class.batch
	k := batchKey{batchClass: r.class, first: int64(iter) * int64(bs), dp: dp, balance: r.cfg.Reorder}
	e, fresh := r.batches.entry(k)
	switch {
	case e == nil:
		return p, false
	case fresh:
		e.batch = r.build(k)
		e.ready.Done()
	default:
		e.ready.Wait()
	}
	p = e.batch
	p.iter = iter
	return p, true
}

// build prepares k's batch into fresh slices that no runtime owns:
// with the entry, the samples, one workload backing for the batch-order
// work and the rank-major gather, and the rank headers are an entry's
// four allocations.
func (r *Runtime) build(k batchKey) preparedBatch {
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
	buf.work = fold(buf.work, buf.batch, k.prof.Kernel())
	err := r.assign(&buf, k.dp, k.balance)
	return preparedBatch{batch: buf.batch, work: buf.work, ranks: buf.ranks, err: err}
}
