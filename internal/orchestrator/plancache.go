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
// runtime sits on: a fingerprint-keyed cache of §4.3 search results.
// A production cluster serves a stream of training jobs (§7), and a
// stream is repetitive — K jobs with identical specs (same model,
// batch geometry, lease size, calibrated profile) would each pay the
// full strategy enumeration, the planner's hot path (Table 3). The
// cache collapses them: the first caller runs the search and every
// later caller with the same fingerprint reuses it. Lease resizes hit
// the same cache, so growing back to a previously planned size is free.
//
// A Plan call holds the cache's lock from lookup to outcome, so
// concurrent callers are served one at a time: callers of one
// fingerprint still pay one search, the rest waiting on the lock and
// then hitting.
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

	mu      sync.Mutex // held for a whole Plan call
	entries map[string]planEntry

	searches  atomic.Int64
	hits      atomic.Int64
	warmHits  atomic.Int64
	warmSeeds atomic.Int64
	pruned    atomic.Int64
	storeErrs atomic.Int64
}

// planEntry is one fingerprint's outcome: exactly one of plan and err
// is set.
type planEntry struct {
	plan *Plan
	err  error
}

// NewPlanCache builds an empty in-memory cache; opts tunes every
// search it runs (the chosen plans are independent of
// opts.Parallelism).
func NewPlanCache(opts SearchOptions) *PlanCache {
	return &PlanCache{opts: opts, entries: make(map[string]planEntry)}
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
// once per fingerprint: later callers reuse the stored outcome. A
// persistent cache first consults the durable store (a warm hit runs
// no search at all); a true miss runs the search, warm-seeded from a
// neighbouring lease size when an incumbent exists, and writes the
// result through. Infeasibility errors are cached too — a spec that
// cannot be planned today cannot be planned by retrying — but a search
// cut short by a context (cancellation, deadline) is returned and never
// stored, so a later caller with a healthy context plans instead of
// inheriting it. The returned plan is a private copy.
func (c *PlanCache) Plan(ctx context.Context, s Spec) (*Plan, error) {
	key := fingerprintSpec(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits.Add(1)
	} else if plan, stored := c.loadStored(key); stored {
		c.warmHits.Add(1)
		e = planEntry{plan: plan}
	} else {
		seed := c.neighborSeed(s)
		c.searches.Add(1)
		if seed != nil {
			c.warmSeeds.Add(1)
		}
		plan, pruned, _, err := search(ctx, s, seed, c.opts)
		c.pruned.Add(int64(pruned))
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if err == nil {
			c.persist(key, plan)
		}
		e = planEntry{plan, err}
	}
	c.entries[key] = e
	if e.err != nil {
		return nil, e.err
	}
	cp := *e.plan // Plan holds no reference types: a value copy is private
	return &cp, nil
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
// Write failures only increment StoreErrs — the in-memory entry still
// serves later callers, and a cache that cannot persist is still a
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

// incumbent returns a successful plan for key — in memory, else in the
// durable store. The caller holds c.mu.
func (c *PlanCache) incumbent(key string) *Plan {
	if e, ok := c.entries[key]; ok {
		return e.plan // nil for a cached failure
	}
	plan, _ := c.loadStored(key)
	return plan
}

// Searches returns how many real plan searches the cache ran; Hits how
// many calls were served by an existing in-memory fingerprint.
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
