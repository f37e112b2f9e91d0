package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/store"
)

// plan-sweep is the control plane alone, at the paper's scale: one op
// is a restart cycle of the durable plan cache. A fresh persistent
// cache plans a grid of G specs cold (Table 3's node counts and batch
// sizes, three models, a third of the grid under a frozen setting),
// then each spec's N±1-node neighbour (a search warm-seeded by the
// incumbent), then the cache is dropped, reopened over the same
// directory and asked for all 2G plans again (durable hits). Trainer,
// fleet and preprocessing do nothing here, which makes this the bypass
// workload for every change to them.

// sweepBaseNodes sizes the cluster every sweep profiler is built on.
// The fleet does the same: one profiler per model on the shared
// cluster, specs scoped to node counts within it. A spec and its N±1
// neighbour must share the profiler for the warm seed to find its
// incumbent.
const sweepBaseNodes = 192

type sweepInstance struct {
	seed      uint64
	tmp       string
	tr        *tracer
	profilers map[string]*profiler.Profiler // model + "/" + freeze
}

func modelByName(name string) model.MLLM {
	switch name {
	case "15b":
		return model.MLLM15B()
	case "72b":
		return model.MLLM72B()
	}
	return model.MLLM9B()
}

func freezeByName(name string) model.FreezeSpec {
	for _, f := range model.FrozenSettings() {
		if f.Name == name {
			return f
		}
	}
	return model.FullTraining
}

func setupSweep(seed uint64, tmp string) (instance, error) {
	s := &sweepInstance{seed: seed, tmp: tmp, profilers: map[string]*profiler.Profiler{}}
	cl := cluster.Production(sweepBaseNodes)
	for _, m := range sweepModels {
		for _, fz := range append([]string{""}, sweepFrozen...) {
			opts := profiler.DefaultOptions(cl, modelByName(m))
			opts.Freeze = freezeByName(fz)
			p, err := calibrate(opts)
			if err != nil {
				return nil, err
			}
			s.profilers[m+"/"+fz] = p
		}
	}
	return s, nil
}

// spec turns generated numbers into the program's Spec.
func (s *sweepInstance) spec(g sweepSpec, nodes int) orchestrator.Spec {
	cl := cluster.Production(sweepBaseNodes)
	cl.Nodes = nodes
	return orchestrator.Spec{
		Cluster: cl, Model: modelByName(g.Model), GlobalBatch: g.Batch,
		Microbatch: 1, Profiler: s.profilers[g.Model+"/"+g.Freeze], VPP: 1,
	}
}

// requests lists an op's 2G specs: the grid, then its neighbours.
func (s *sweepInstance) requests(i int) []orchestrator.Spec {
	grid := genSweep(s.seed, i)
	out := make([]orchestrator.Spec, 0, 2*len(grid))
	for _, g := range grid {
		out = append(out, s.spec(g, g.Nodes))
	}
	for _, g := range grid {
		out = append(out, s.spec(g, g.Neighbour))
	}
	return out
}

func plansDigest(plans []*orchestrator.Plan) string {
	h := sha256.New()
	for _, p := range plans {
		fmt.Fprintln(h, p.String())
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sweepRun is what one plan-sweep op leaves behind.
type sweepRun struct {
	plans  []*orchestrator.Plan // cold then seeded, request order
	first  *orchestrator.PlanCache
	second *orchestrator.PlanCache
}

func (s *sweepInstance) run(i, opSpan int) (sweepRun, error) {
	var out sweepRun
	reqs := s.requests(i)
	g := len(reqs) / 2
	dir, err := os.MkdirTemp(s.tmp, "plans-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	open := func() (*orchestrator.PlanCache, error) {
		disk, err := store.OpenDisk(dir)
		if err != nil {
			return nil, err
		}
		opts := orchestrator.SearchOptions{Parallelism: concurrency}
		var st store.Store = disk
		if s.tr != nil {
			st = &timedStore{inner: disk, tr: s.tr, parent: opSpan, op: i}
			opts.OnCandidate = s.tr.cand.observe
		}
		return orchestrator.NewPersistentPlanCache(opts, st), nil
	}
	plan := func(c *orchestrator.PlanCache, name string, sp orchestrator.Spec) (*orchestrator.Plan, error) {
		if s.tr != nil {
			id := s.tr.begin(name, opSpan, i)
			defer s.tr.end(id)
		}
		p, err := c.Plan(context.Background(), sp)
		if err != nil {
			return nil, err
		}
		if err := orchestrator.CheckMemory(sp, *p); err != nil {
			return nil, err
		}
		return p, nil
	}
	ctr := func(c *orchestrator.PlanCache, searches, seeds, warmHits int64) error {
		if c.Searches() != searches || c.WarmSeeds() != seeds || c.WarmHits() != warmHits || c.StoreErrs() != 0 {
			return fmt.Errorf("plan cache counters: %d searches %d warm seeds %d warm hits %d store errors, want %d/%d/%d/0",
				c.Searches(), c.WarmSeeds(), c.WarmHits(), c.StoreErrs(), searches, seeds, warmHits)
		}
		return nil
	}

	c1, err := open()
	if err != nil {
		return out, err
	}
	out.first = c1
	for _, sp := range reqs[:g] {
		p, err := plan(c1, "orchestrator.cold", sp)
		if err != nil {
			return out, err
		}
		out.plans = append(out.plans, p)
	}
	if err := ctr(c1, int64(g), 0, 0); err != nil {
		return out, fmt.Errorf("cold phase: %w", err)
	}
	for _, sp := range reqs[g:] {
		p, err := plan(c1, "orchestrator.seeded", sp)
		if err != nil {
			return out, err
		}
		out.plans = append(out.plans, p)
	}
	if err := ctr(c1, int64(2*g), int64(g), 0); err != nil {
		return out, fmt.Errorf("seeded phase: %w", err)
	}
	// Restart: a new cache instance over the same directory.
	c2, err := open()
	if err != nil {
		return out, err
	}
	out.second = c2
	for k, sp := range reqs {
		p, err := plan(c2, "orchestrator.warm_hit", sp)
		if err != nil {
			return out, err
		}
		if p.String() != out.plans[k].String() {
			return out, fmt.Errorf("durable hit for request %d differs from the plan that was stored", k)
		}
	}
	if err := ctr(c2, 0, 0, int64(2*g)); err != nil {
		return out, fmt.Errorf("restart phase: %w", err)
	}
	return out, nil
}

func (s *sweepInstance) op(i, opSpan int) opResult {
	r, err := s.run(i, opSpan)
	out := opResult{err: err, sweep: &r}
	if err == nil {
		// Work units are plan requests served: G cold, G seeded, 2G hits.
		out.work = 2 * len(r.plans)
		out.digest = func() string { return plansDigest(r.plans) }
		for _, p := range r.plans {
			out.mfuNum += p.EstMFU
			out.mfuDen++
			out.tally.estIter += p.IterTime
			out.tally.plans++
		}
		for _, c := range []*orchestrator.PlanCache{r.first, r.second} {
			out.tally.searches += float64(c.Searches())
			out.tally.hits += float64(c.Hits() + c.WarmHits())
			out.tally.warmSeeds += float64(c.WarmSeeds())
			out.tally.coalesced += float64(c.Coalesced())
			out.tally.storeErrs += float64(c.StoreErrs())
		}
	}
	return out
}

// reference plans every request of op i cold, one spec per fresh
// in-memory cache at one worker, so neither a seed nor the store nor
// the worker count can have touched the result the timed op is held to.
func (s *sweepInstance) reference(i int) (string, error) {
	var plans []*orchestrator.Plan
	for _, sp := range s.requests(i) {
		c := orchestrator.NewPlanCache(orchestrator.SearchOptions{Parallelism: 1})
		p, err := c.Plan(context.Background(), sp)
		if err != nil {
			return "", err
		}
		plans = append(plans, p)
	}
	return plansDigest(plans), nil
}

func (s *sweepInstance) close() {}

func (s *sweepInstance) trace(tr *tracer) { s.tr = tr }
