package orchestrator

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"disttrain/internal/cluster"
	"disttrain/internal/fingerprint"
	"disttrain/internal/model"
	"disttrain/internal/store"
)

// PlanCache is the planning-as-a-service layer the multi-tenant fleet
// runtime sits on: a content-keyed cache of §4.3 search results.
// A production cluster serves a stream of training jobs (§7), and a
// stream is repetitive — K jobs with identical specs (same model,
// batch geometry, lease size, calibrated profile) would each pay the
// full strategy enumeration, the planner's hot path (Table 3). The
// cache collapses them: the first caller runs the search and every
// later caller with the same spec content reuses it. Lease resizes hit
// the same cache, so growing back to a previously planned size is free.
//
// In memory a spec is keyed by its content (planKey), so a hit hashes
// nothing; fingerprintSpec names it only to the durable store.
//
// A Plan call holds the cache's lock from lookup to outcome, so
// concurrent callers are served one at a time: callers of one spec
// still pay one search, the rest waiting on the lock and then hitting.
//
// A cache built with NewPersistentPlanCache additionally sits on a
// durable store: a later process serves stored plans as warm hits
// with zero searches, and a true miss warm-starts from a neighbouring
// lease size's incumbent (neighborSeed).
type PlanCache struct {
	opts  SearchOptions
	store store.Store // nil for a purely in-memory cache

	mu      sync.Mutex // held for a whole Plan call
	entries map[planKey]planEntry
	classes map[planClass]int // each pair's planKey.class

	searches  atomic.Int64
	hits      atomic.Int64
	warmHits  atomic.Int64
	warmSeeds atomic.Int64
	storeErrs atomic.Int64
}

// planKey is a validated spec's in-memory key: every field
// fingerprintSpec hashes but the model, compared by value, so two
// specs share an entry exactly when they share a fingerprint. The model
// is covered by the calibration fingerprint, since a valid spec's model
// is its profiler's. The spec's two strings are interned into class to
// keep the key at 128 bytes: a map stores a larger key out of line, at
// one allocation per insert.
type planKey struct {
	cluster                               cluster.Cluster
	globalBatch, microbatch, maxGPUs, vpp int
	class                                 int
}

// planClass is a spec's string content: the profiler's calibration
// fingerprint and the lease's placement shape.
type planClass struct{ calibration, placement string }

// planEntry is one spec's outcome: exactly one of plan and err is set.
type planEntry struct {
	plan *Plan
	err  error
}

// NewPlanCache builds an empty in-memory cache; opts.OnCandidate
// observes every search it runs.
func NewPlanCache(opts SearchOptions) *PlanCache {
	return &PlanCache{opts: opts, entries: make(map[planKey]planEntry), classes: make(map[planClass]int)}
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

// fingerprintSpec derives the spec's durable name: a content hash
// over every field the search reads — cluster shape and fabric, model
// architecture, batch geometry, GPU budget, VPP, placement shape, and
// the profiler's calibration fingerprint. No pointer identity anywhere:
// two independently calibrated profilers with identical options and
// calibration data share plans, and the key is stable across processes
// (it is the durable store's key, computed only where the store
// is read or written). Cluster node identity is not part of a Spec, so
// two leases of equal size over different nodes fingerprint identically
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
// once per spec content: later callers reuse the stored outcome. An
// invalid spec returns its error uncached and uncounted. A persistent
// cache then consults the durable store (a warm hit runs no search at
// all); a true miss runs the search, warm-seeded from a neighbouring
// lease size when an incumbent exists, and writes the result through.
// Infeasibility errors are cached too — a spec that cannot be planned
// today cannot be planned by retrying — but a search cut short by a
// context (cancellation, deadline) is returned and never stored, so a
// later caller with a healthy context plans instead of inheriting it.
// Every call for one spec content returns the cache's one *Plan, which
// is immutable: callers read it and never write it, so the runtimes
// executing it may key on the pointer.
func (c *PlanCache) Plan(ctx context.Context, s Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := c.key(&s)
	e, ok := c.entries[key]
	if ok {
		c.hits.Add(1)
	} else {
		var name string // the durable store's key
		if c.store != nil {
			name = fingerprintSpec(s)
		}
		if plan, stored := c.loadStored(name); stored {
			c.warmHits.Add(1)
			e = planEntry{plan: plan}
		} else {
			seed := c.neighborSeed(s)
			c.searches.Add(1)
			if seed != nil {
				c.warmSeeds.Add(1)
			}
			plan, err := search(ctx, s, seed, c.opts)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			if err == nil {
				c.persist(name, plan)
			}
			e = planEntry{plan, err}
		}
		c.entries[key] = e
	}
	return e.plan, e.err
}

// key returns the in-memory key of a validated spec, interning its
// class. The caller holds c.mu.
func (c *PlanCache) key(s *Spec) planKey {
	pc := planClass{s.Profiler.CalibrationFingerprint(), s.Placement}
	class, ok := c.classes[pc]
	if !ok {
		class = len(c.classes)
		c.classes[pc] = class
	}
	return planKey{s.Cluster, s.GlobalBatch, s.Microbatch, s.MaxGPUs, s.VPP, class}
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
		if plan := c.incumbent(&ns); plan != nil {
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

// incumbent returns a successful plan for s — in memory, else in the
// durable store. The caller holds c.mu.
func (c *PlanCache) incumbent(s *Spec) *Plan {
	if e, ok := c.entries[c.key(s)]; ok {
		return e.plan // nil for a cached failure
	}
	if c.store == nil {
		return nil
	}
	plan, _ := c.loadStored(fingerprintSpec(*s))
	return plan
}

// Searches returns how many real plan searches the cache ran; Hits how
// many calls were served by an existing in-memory entry.
func (c *PlanCache) Searches() int64 { return c.searches.Load() }
func (c *PlanCache) Hits() int64     { return c.hits.Load() }

// Coalesced is inert (always 0), kept only for benchmark/ until a later benchmark change deletes it.
func (c *PlanCache) Coalesced() int64 { return 0 }

// WarmHits counts specs served from the durable store with no
// search; WarmSeeds counts searches that started from a neighbouring
// size's seed (a durable hit starts no search, so it never counts);
// StoreErrs counts store failures the cache degraded around. What the
// searches' bounds pruned is reported to the cache's OnCandidate.
func (c *PlanCache) WarmHits() int64  { return c.warmHits.Load() }
func (c *PlanCache) WarmSeeds() int64 { return c.warmSeeds.Load() }
func (c *PlanCache) StoreErrs() int64 { return c.storeErrs.Load() }
