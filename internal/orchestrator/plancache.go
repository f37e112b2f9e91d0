package orchestrator

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"disttrain/internal/fingerprint"
	"disttrain/internal/model"
	"disttrain/internal/store"
)

// PlanCache is the planning-as-a-service layer the multi-tenant fleet
// runtime sits on: a fingerprint-keyed cache of §4.3 search results
// with singleflight evaluation. A production cluster serves a stream
// of training jobs (§7), and a stream is repetitive — K concurrent
// jobs with identical specs (same model, batch geometry, lease size,
// calibrated profile) would each pay the full strategy enumeration,
// the planner's hot path (Table 3). The cache collapses them: the
// first caller runs the search, every concurrent or later caller with
// the same fingerprint blocks on (or reuses) that one search. Lease
// resizes hit the same cache, so growing back to a previously planned
// size is free.
//
// A cache built with NewPersistentPlanCache additionally sits on a
// durable store: successful plans are written through, and a later
// process (or a later cache instance) serves them as warm hits with
// zero searches. On a true miss the cache warm-starts the search from
// the incumbent plan of a neighbouring lease size (Nodes±1, same spec
// family): the incumbent's strategy joins the search's first phase, so
// its known iteration time tightens the bound that prunes the rest of
// the enumeration, without ever changing the chosen plan.
//
// The cache has two doors onto one resolve routine (executeWave). The
// synchronous Plan resolves a miss as a wave of one under the caller's
// context. PlanAsync, the door for pipelined admission, enqueues a
// miss onto a bounded planner pool (StartPlanners) and returns a
// PlanTicket immediately. Misses enqueued while a wave is in flight
// batch into the next wave and share one PlanMany call;
// same-fingerprint requests coalesce onto one ticket. Async results
// stay invisible to warm-seed lookups and PlanIfSettled until the
// caller Publishes the ticket — the fleet publishes at deterministic
// landing rounds, so cache visibility never depends on wall clock.
type PlanCache struct {
	opts  SearchOptions
	store store.Store // nil for a purely in-memory cache

	mu      sync.Mutex
	entries map[string]*planEntry

	// Planner pool: a single dispatcher goroutine drains queue in
	// waves; poolN > 0 while started.
	poolMu   sync.Mutex
	poolCond *sync.Cond
	poolN    int
	poolStop bool
	poolDone chan struct{}
	queue    []planReq

	// joinHook, when non-nil, runs after Plan joins an existing entry
	// and before it waits on it — a test seam for the retry path.
	joinHook func()

	searches  atomic.Int64
	hits      atomic.Int64
	coalesced atomic.Int64
	warmHits  atomic.Int64
	warmSeeds atomic.Int64
	pruned    atomic.Int64
	storeErrs atomic.Int64
}

// Entry lifecycle: created running (claimed by its producer), settled
// exactly once when the outcome lands. Synchronous entries publish at
// settle; async entries stay unpublished — invisible to incumbent and
// PlanIfSettled — until their ticket's Publish. An outcome cut short
// by a context leaves the map as it settles, so it is only ever seen
// by callers already holding the entry.
const (
	entryRunning = iota
	entrySettled
)

// planEntry is one fingerprint's singleflight slot. done closes at
// settle; plan/err are written before the close and are safe to read
// after it. state and published are guarded by PlanCache.mu.
type planEntry struct {
	state     int
	done      chan struct{}
	plan      *Plan
	err       error
	published bool
	async     bool
	seed      *Candidate // captured at claim, immutable afterwards
}

// settledEntry is a published entry already holding plan.
func settledEntry(plan *Plan) *planEntry {
	e := &planEntry{state: entrySettled, published: true, plan: plan, done: make(chan struct{})}
	close(e.done)
	return e
}

// planReq is one claimed miss awaiting resolution by executeWave.
type planReq struct {
	e    *planEntry
	key  string
	spec Spec
}

// NewPlanCache builds an empty in-memory cache; opts tunes every
// search it runs (the chosen plans are independent of
// opts.Parallelism).
func NewPlanCache(opts SearchOptions) *PlanCache {
	c := &PlanCache{opts: opts, entries: make(map[string]*planEntry)}
	c.poolCond = sync.NewCond(&c.poolMu)
	return c
}

// NewPersistentPlanCache builds a cache written through to st:
// successful plans persist across processes, and misses warm-start
// from neighbouring lease sizes. st must honour the store contract —
// corrupt or torn entries read as misses, never as payloads.
func NewPersistentPlanCache(opts SearchOptions, st store.Store) *PlanCache {
	c := NewPlanCache(opts)
	c.store = st
	return c
}

// fingerprintSpec derives the canonical cache key for a spec: a
// content hash over every field the search reads — cluster shape and
// fabric, model architecture, batch geometry, GPU budget, VPP,
// placement shape, and the profiler's calibration fingerprint. No
// pointer identity anywhere: two independently calibrated profilers
// with identical options and calibration data share plans, and the key
// is stable across processes (it doubles as the durable store's
// filename). Cluster node identity is not part of a Spec, so two
// leases of equal size over different nodes fingerprint identically
// under count-based policies (Placement empty); placement-aware fleets
// set Placement to the lease's shape, keying a packed lease and a
// fragmented one separately.
func fingerprintSpec(s Spec) string {
	h := fingerprint.New("disttrain-plan-spec/v1")
	fingerprint.Cluster(h, s.Cluster)
	fingerprint.Model(h, s.Model)
	h.Int(s.GlobalBatch)
	h.Int(s.Microbatch)
	h.Int(s.MaxGPUs)
	h.Int(s.VPP)
	h.Str(s.Placement)
	h.Bool(s.Profiler != nil)
	if s.Profiler != nil {
		h.Str(s.Profiler.CalibrationFingerprint())
	}
	return h.Sum()
}

// Fingerprint exposes the cache key for a spec, so callers building
// their own coalescing structures (the fleet's pending-plan table) key
// them identically to the cache.
func (c *PlanCache) Fingerprint(s Spec) string { return fingerprintSpec(s) }

// planEnvelope is the durable store's payload: a versioned JSON
// wrapper so the format can evolve without poisoning old caches, with
// the fingerprint inside as a self-check against misfiled entries.
// Plan holds only value types and finite float64s, so the JSON round
// trip is exact.
type planEnvelope struct {
	V    int    `json:"v"`
	Spec string `json:"spec"`
	Plan Plan   `json:"plan"`
}

const planEnvelopeV = 1

// Plan returns the §4.3 plan for the spec, running the search at most
// once per fingerprint: concurrent callers with the same fingerprint
// share a single evaluation (singleflight), and later callers reuse
// the stored outcome. A persistent cache first consults the durable
// store (a warm hit runs no search at all); a true miss runs the
// search, warm-seeded from a neighbouring lease size when an incumbent
// exists, and writes the result through. Infeasibility errors are
// cached too — a spec that cannot be planned today cannot be planned
// by retrying — but a search cut short by a context (cancellation,
// deadline) is never cached, so a caller with a healthy context
// retries instead of inheriting the poisoned outcome. The returned
// plan is a private copy.
func (c *PlanCache) Plan(ctx context.Context, s Spec) (*Plan, error) {
	key := fingerprintSpec(s)
	counted := false // a call is at most one hit, however often it loops
	for {
		e, claimed := c.claim(key, s, false)
		if claimed {
			c.executeWave(ctx, []planReq{{e: e, key: key, spec: s}}, c.opts.Parallelism)
		} else {
			if !counted {
				c.hits.Add(1)
				counted = true
			}
			if c.joinHook != nil {
				c.joinHook()
			}
			<-e.done
		}
		if e.err == nil {
			cp := *e.plan // Plan holds no reference types: a value copy is private
			return &cp, nil
		}
		// A search cut short by a context — possibly another caller's —
		// was evicted as it settled: a caller whose own context is still
		// healthy retries (and leads the next singleflight under it),
		// everyone else propagates the error.
		if !contextCut(e.err) || ctx.Err() != nil {
			return nil, e.err
		}
	}
}

// contextCut reports whether err is a search cut short by a context
// rather than an answer about the spec.
func contextCut(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// claim returns the entry for key, registering a running one when the
// fingerprint is unclaimed; claimed tells the caller it must resolve
// the entry. The warm seed is captured here, before the entry exists —
// not when its search executes — so the seed (and everything
// downstream: prune counts, Seeded latency costing) depends only on
// what was published before the claiming call.
func (c *PlanCache) claim(key string, s Spec, async bool) (e *planEntry, claimed bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return e, false
	}
	seed := c.neighborSeed(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e = &planEntry{state: entryRunning, done: make(chan struct{}), async: async, seed: seed}
	c.entries[key] = e
	return e, true
}

// PlanTicket is a claim on an in-flight (or settled) async plan.
// Wait blocks for the outcome; Publish makes a settled outcome
// visible to warm-seed lookups and PlanIfSettled. The fleet publishes
// only at deterministic landing rounds, so two runs with different
// planner-pool sizes see identical cache states at every round.
type PlanTicket struct {
	c *PlanCache
	e *planEntry
}

// Wait blocks until the plan settles (or ctx is done) and returns a
// private copy of the outcome.
func (t *PlanTicket) Wait(ctx context.Context) (*Plan, error) {
	select {
	case <-t.e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if t.e.err != nil {
		return nil, t.e.err
	}
	cp := *t.e.plan
	return &cp, nil
}

// Publish marks a settled outcome visible to incumbent warm-seed
// lookups and PlanIfSettled. Idempotent; a no-op before settle.
func (t *PlanTicket) Publish() {
	t.c.mu.Lock()
	if t.e.state == entrySettled {
		t.e.published = true
	}
	t.c.mu.Unlock()
}

// Seeded reports whether the underlying search was handed a warm seed
// from a neighbouring lease size — captured at claim, so it is
// identical across planner-pool sizes and usable in costed latency
// models.
func (t *PlanTicket) Seeded() bool { return t.e.seed != nil }

// PlanAsync requests the plan for s without blocking. A published
// settled fingerprint is a hit; an in-flight or unpublished one
// coalesces onto the existing ticket; a true miss claims the entry and
// enqueues it for the next planner wave. Without a started planner
// pool the wave of one runs before returning, under ctx (the
// sequential-admission reference mode) — logically identical, only
// the physical execution time differs.
func (c *PlanCache) PlanAsync(ctx context.Context, s Spec) *PlanTicket {
	key := fingerprintSpec(s)
	e, claimed := c.claim(key, s, true)
	if !claimed {
		c.mu.Lock()
		if e.visible() {
			c.hits.Add(1)
		} else {
			c.coalesced.Add(1)
		}
		c.mu.Unlock()
	} else if r := (planReq{e: e, key: key, spec: s}); !c.enqueue(r) {
		c.executeWave(ctx, []planReq{r}, c.opts.Parallelism)
	}
	return &PlanTicket{c: c, e: e}
}

// PlanIfSettled returns the cached outcome for s only if it is already
// settled and published — it never blocks and never starts a search.
// ok reports whether an outcome was available; a cached infeasibility
// error returns (nil, true, err).
func (c *PlanCache) PlanIfSettled(s Spec) (plan *Plan, ok bool, err error) {
	key := fingerprintSpec(s)
	e, warm := c.visible(key)
	if e == nil {
		return nil, false, nil
	}
	if warm {
		c.mu.Lock()
		if _, raced := c.entries[key]; !raced {
			c.entries[key] = e
		}
		c.mu.Unlock()
		c.warmHits.Add(1)
	} else {
		c.hits.Add(1)
	}
	if e.err != nil {
		return nil, true, e.err
	}
	cp := *e.plan
	return &cp, true, nil
}

// Settled reports whether a plan (or cached error) for s is already
// visible — published in memory, or present in the durable store —
// without counting a hit or starting anything. Speculative pre-planners
// use it to skip shapes that are already covered.
func (c *PlanCache) Settled(s Spec) bool {
	e, _ := c.visible(fingerprintSpec(s))
	return e != nil
}

// visible is the cache's one read of "is there an outcome for key that
// callers may see": the in-memory entry when it is settled and
// published (a plan or a cached error), else a fresh settled entry
// around the durable store's plan (warm), else nil. It never blocks,
// counts nothing and starts nothing. An in-memory entry in any state is
// authoritative — an unpublished async result also lives in the durable
// store, and falling through to the store would leak it ahead of its
// landing round.
func (c *PlanCache) visible(key string) (e *planEntry, warm bool) {
	c.mu.Lock()
	e, found := c.entries[key]
	if found && !e.visible() {
		e = nil
	}
	c.mu.Unlock()
	if found {
		return e, false
	}
	if plan, ok := c.loadStored(key); ok {
		return settledEntry(plan), true
	}
	return nil, false
}

// visible reports a settled, published entry; the caller holds
// PlanCache.mu.
func (e *planEntry) visible() bool { return e.state == entrySettled && e.published }

// StartPlanners launches the async planner pool: a dispatcher that
// drains queued misses in waves, running each wave as one batched
// PlanMany over n candidate workers. Requests arriving while a wave
// runs batch into the next wave. Errors if already started.
func (c *PlanCache) StartPlanners(n int) error {
	if n < 1 {
		return errors.New("orchestrator: planner pool size must be >= 1")
	}
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.poolN != 0 {
		return errors.New("orchestrator: planner pool already started")
	}
	c.poolN = n
	c.poolStop = false
	c.poolDone = make(chan struct{})
	go c.dispatch()
	return nil
}

// StopPlanners drains every queued request (their searches still run,
// as one final wave) and stops the pool. Safe to call when no pool is
// running.
func (c *PlanCache) StopPlanners() {
	c.poolMu.Lock()
	if c.poolN == 0 {
		c.poolMu.Unlock()
		return
	}
	c.poolStop = true
	done := c.poolDone
	c.poolCond.Broadcast()
	c.poolMu.Unlock()
	<-done
}

// enqueue hands a request to the planner pool; false when no pool is
// running (the caller resolves it as a wave of one instead).
func (c *PlanCache) enqueue(r planReq) bool {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.poolN == 0 || c.poolStop {
		return false
	}
	c.queue = append(c.queue, r)
	c.poolCond.Signal()
	return true
}

// dispatch is the pool's single dispatcher goroutine: it grabs the
// entire queue as one wave, executes it, and repeats; on stop it
// drains what remains before exiting.
func (c *PlanCache) dispatch() {
	c.poolMu.Lock()
	for {
		for len(c.queue) == 0 && !c.poolStop {
			c.poolCond.Wait()
		}
		if len(c.queue) == 0 {
			done := c.poolDone
			c.poolN = 0
			c.poolStop = false
			c.poolMu.Unlock()
			close(done)
			return
		}
		wave := c.queue
		c.queue = nil
		n := c.poolN
		c.poolMu.Unlock()
		c.executeWave(context.Background(), wave, n)
		c.poolMu.Lock()
	}
}

// executeWave is the cache's one resolve routine — a planner-pool
// wave, a synchronous Plan, a poolless PlanAsync (the last two are
// waves of one under the caller's context). Store hits settle
// immediately; the rest share a single PlanMany, each request carrying
// the seed its entry captured at claim. Per-spec bounds come from each
// spec's own deterministic sample (and seed), so prune counts and
// plans are identical whether a spec runs alone or batched. Results
// persist before they settle, and settle before anyone can publish
// them.
func (c *PlanCache) executeWave(ctx context.Context, wave []planReq, workers int) {
	var live []planReq
	var reqs []PlanRequest
	for _, r := range wave {
		if plan, ok := c.loadStored(r.key); ok {
			c.warmHits.Add(1)
			r.e.plan = plan
			c.settle(r)
			continue
		}
		c.searches.Add(1)
		if r.e.seed != nil {
			c.warmSeeds.Add(1)
		}
		live = append(live, r)
		reqs = append(reqs, PlanRequest{Spec: r.spec, Seed: r.e.seed})
	}
	if len(live) == 0 {
		return
	}
	opts := c.opts
	opts.Parallelism = workers
	for i, res := range PlanMany(ctx, reqs, opts) {
		r := live[i]
		r.e.plan, r.e.err = res.Plan, res.Err
		c.pruned.Add(int64(res.Pruned))
		if r.e.err == nil {
			c.persist(r.key, r.e.plan)
		}
		c.settle(r)
	}
}

// settle transitions a request's entry to settled and wakes its
// waiters. Sync entries publish immediately; async entries wait for
// their ticket's Publish. An outcome cut short by a context is evicted
// in the same step — whichever door produced it — so the next request
// for the fingerprint claims a fresh entry instead of coalescing onto
// the poisoned one.
func (c *PlanCache) settle(r planReq) {
	c.mu.Lock()
	r.e.state = entrySettled
	r.e.published = !r.e.async
	if contextCut(r.e.err) {
		delete(c.entries, r.key)
	}
	c.mu.Unlock()
	close(r.e.done)
}

// loadStored reads and decodes a durable entry. Any failure — store
// miss, I/O error, unknown version, fingerprint mismatch — degrades to
// a cold search; decode failures can never poison planning.
func (c *PlanCache) loadStored(key string) (*Plan, bool) {
	if c.store == nil {
		return nil, false
	}
	b, ok, err := c.store.Get(key)
	if err != nil {
		c.storeErrs.Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	var env planEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.V != planEnvelopeV || env.Spec != key {
		c.storeErrs.Add(1)
		return nil, false
	}
	p := env.Plan
	return &p, true
}

// persist writes a successful plan through to the durable store.
// Write failures only increment StoreErrs — the in-memory entry is
// already serving callers, and a cache that cannot persist is still a
// correct cache.
func (c *PlanCache) persist(key string, plan *Plan) {
	if c.store == nil {
		return
	}
	b, err := json.Marshal(planEnvelope{V: planEnvelopeV, Spec: key, Plan: *plan})
	if err == nil {
		err = c.store.Put(key, b)
	}
	if err != nil {
		c.storeErrs.Add(1)
	}
}

// neighborSeed looks for an incumbent plan at a neighbouring lease
// size (Nodes−1 first, then Nodes+1, same spec family) and extracts
// its strategy combination as a search seed. Placement-aware specs
// guess the packed shape for the neighbour — a wrong guess just
// misses. The seed only ever accelerates the search; it cannot change
// its outcome.
func (c *PlanCache) neighborSeed(s Spec) *Candidate {
	for _, delta := range []int{-1, 1} {
		nodes := s.Cluster.Nodes + delta
		if nodes < 1 {
			continue
		}
		ns := s
		ns.Cluster.Nodes = nodes
		if ns.Placement != "" {
			ns.Placement = strconv.Itoa(nodes)
		}
		if plan := c.incumbent(fingerprintSpec(ns)); plan != nil {
			return &Candidate{
				TPLM: plan.Modules[model.Backbone].Config.TP,
				DPLM: plan.Modules[model.Backbone].Config.DP,
				WME:  plan.Modules[model.Encoder].Config.TP,
				WMG:  plan.Modules[model.Generator].Config.TP,
			}
		}
	}
	return nil
}

// incumbent returns a visible, successful plan for key without
// blocking on in-flight searches.
func (c *PlanCache) incumbent(key string) *Plan {
	if e, _ := c.visible(key); e != nil && e.err == nil {
		return e.plan
	}
	return nil
}

// Searches returns how many real plan searches the cache ran; Hits how
// many calls were served by an existing fingerprint (including callers
// that blocked on an in-flight search, at most one per call).
func (c *PlanCache) Searches() int64 { return c.searches.Load() }
func (c *PlanCache) Hits() int64     { return c.hits.Load() }

// Coalesced counts PlanAsync calls that joined an in-flight (or
// not-yet-published) search instead of starting one — the herd
// collapse the async tier exists for.
func (c *PlanCache) Coalesced() int64 { return c.coalesced.Load() }

// WarmHits counts fingerprints served from the durable store with no
// search; WarmSeeds counts searches that started from a neighbouring
// size's seed (a durable hit starts no search, so it never counts);
// Pruned counts candidates the searches' bounds skipped; StoreErrs
// counts store failures the cache degraded around.
func (c *PlanCache) WarmHits() int64  { return c.warmHits.Load() }
func (c *PlanCache) WarmSeeds() int64 { return c.warmSeeds.Load() }
func (c *PlanCache) Pruned() int64    { return c.pruned.Load() }
func (c *PlanCache) StoreErrs() int64 { return c.storeErrs.Load() }

// Len returns the number of distinct fingerprints planned so far.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
