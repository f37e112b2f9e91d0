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
type PlanCache struct {
	opts  SearchOptions
	store store.Store // nil for a purely in-memory cache

	mu      sync.Mutex
	entries map[string]*planEntry

	// joinHook, when non-nil, runs after Plan joins an existing entry
	// and before it waits on it — a test seam for the retry path.
	joinHook func()

	searches  atomic.Int64
	hits      atomic.Int64
	warmHits  atomic.Int64
	warmSeeds atomic.Int64
	pruned    atomic.Int64
	storeErrs atomic.Int64
}

// planEntry is one fingerprint's singleflight slot, created by the
// caller that claims it. done closes when the outcome lands; plan/err
// are written before the close and are safe to read after it. An
// outcome cut short by a context leaves the map as it settles, so it
// is only ever seen by callers already holding the entry.
type planEntry struct {
	done chan struct{}
	plan *Plan
	err  error
	seed *Candidate // captured at claim, immutable afterwards
}

// NewPlanCache builds an empty in-memory cache; opts tunes every
// search it runs (the chosen plans are independent of
// opts.Parallelism).
func NewPlanCache(opts SearchOptions) *PlanCache {
	return &PlanCache{opts: opts, entries: make(map[string]*planEntry)}
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
		e, claimed := c.claim(key, s)
		if claimed {
			c.resolve(ctx, e, key, s)
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

// claim returns the entry for key, registering a new one when the
// fingerprint is unclaimed; claimed tells the caller it must resolve
// the entry. The warm seed is captured here, before the entry exists,
// so it depends only on what had settled before the claiming call.
func (c *PlanCache) claim(key string, s Spec) (e *planEntry, claimed bool) {
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
	e = &planEntry{done: make(chan struct{}), seed: seed}
	c.entries[key] = e
	return e, true
}

// resolve produces a claimed entry's outcome under the claiming
// caller's context: a durable-store hit settles at once; anything else
// runs the search, seeded with what the entry captured at claim, and
// persists a successful plan before settling it.
func (c *PlanCache) resolve(ctx context.Context, e *planEntry, key string, s Spec) {
	if plan, ok := c.loadStored(key); ok {
		c.warmHits.Add(1)
		e.plan = plan
		c.settle(e, key)
		return
	}
	c.searches.Add(1)
	if e.seed != nil {
		c.warmSeeds.Add(1)
	}
	res := PlanMany(ctx, []PlanRequest{{Spec: s, Seed: e.seed}}, c.opts)[0]
	e.plan, e.err = res.Plan, res.Err
	c.pruned.Add(int64(res.Pruned))
	if e.err == nil {
		c.persist(key, e.plan)
	}
	c.settle(e, key)
}

// settle wakes an entry's waiters. An outcome cut short by a context
// is evicted first, so the next request for the fingerprint claims a
// fresh entry instead of joining the poisoned one.
func (c *PlanCache) settle(e *planEntry, key string) {
	if contextCut(e.err) {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.done)
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

// incumbent returns a settled, successful plan for key — in memory,
// else in the durable store — without blocking on in-flight searches.
func (c *PlanCache) incumbent(key string) *Plan {
	c.mu.Lock()
	e, found := c.entries[key]
	c.mu.Unlock()
	if !found {
		plan, _ := c.loadStored(key)
		return plan
	}
	select {
	case <-e.done:
		if e.err == nil {
			return e.plan
		}
	default: // still searching
	}
	return nil
}

// Searches returns how many real plan searches the cache ran; Hits how
// many calls were served by an existing fingerprint (including callers
// that blocked on an in-flight search, at most one per call).
func (c *PlanCache) Searches() int64 { return c.searches.Load() }
func (c *PlanCache) Hits() int64     { return c.hits.Load() }

// Coalesced is inert (always 0), kept only for benchmark/ until a later benchmark change deletes it.
func (c *PlanCache) Coalesced() int64 { return 0 }

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
