package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// The two fleet workloads drive fleet.Run the two ways a fleet is
// used. fleet-steady: 256 identical tenants queue for 32 fixed 2-node
// leases against a pre-warmed shared plan cache, so trainer stepping
// is nearly all the work and the per-round queue term is visible.
// fleet-churn: two dozen elastic tenants of several batch geometries
// arrive, herd, get preempted, lose nodes and depart against a fresh
// durable plan cache, so admission, searches, resizes, store writes
// and trace merging dominate.

const (
	steadyNodes   = 64
	steadyTenants = 256
	steadyBatch   = 32
	steadyIters   = 4
	steadyLease   = 2
)

// calibrationSamples matches the facade's NewSpec.
const calibrationSamples = 300

// calibrate builds a profiler calibrated on the stock LAION corpus.
// The calibration corpus is the one input that does not follow the
// seed: the profile decides the plan (DP width, pipeline depth), and
// with it how much host work one simulated iteration is, so a
// seed-dependent profile would make runs at two seeds measure two
// different programs. The data the ops train on does follow the seed.
func calibrate(opts profiler.Options) (*profiler.Profiler, error) {
	p, err := profiler.New(opts)
	if err != nil {
		return nil, err
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		return nil, err
	}
	if err := p.Calibrate(corpus, calibrationSamples); err != nil {
		return nil, err
	}
	return p, nil
}

// calibratedSpec builds a 9B spec on an n-node production cluster.
func calibratedSpec(nodes, batch int) (orchestrator.Spec, error) {
	cl := cluster.Production(nodes)
	m := model.MLLM9B()
	p, err := calibrate(profiler.DefaultOptions(cl, m))
	if err != nil {
		return orchestrator.Spec{}, err
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: batch, Microbatch: 1, Profiler: p, VPP: 1}, nil
}

func newCorpus(seed int64) (*data.Corpus, error) {
	sp := data.LAION400M()
	sp.Seed = seed
	return data.NewCorpus(sp)
}

// checkFleet applies the checks that define a failed fleet op: a Run
// error, a job error, or a job that neither departed nor executed
// exactly its iterations. The lease-partition check runs per round, in
// watch.
func checkFleet(res *fleet.Result, err error, iters func(spec int) int) error {
	if err != nil {
		return err
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			return fmt.Errorf("%s: %w", jr.Name, jr.Err)
		}
		if jr.Departed {
			continue
		}
		if jr.Result == nil {
			return fmt.Errorf("%s never ran", jr.Name)
		}
		// Re-executed iterations after a rewind would be extra entries;
		// no workload here injects job-level failures.
		if got, want := len(jr.Result.Iterations), iters(jr.Spec); got != want {
			return fmt.Errorf("%s executed %d iterations, want %d", jr.Name, got, want)
		}
	}
	return nil
}

// watch installs the per-round checks on a fleet config: an OnRound
// observer asserting that free, failed and leased nodes partition the
// fleet exactly and, when tracing, the fleet probe around the scheduler
// and the rounds. The returned function is called once Run has
// returned; it closes the probe and reports the first violation.
func watch(cfg *fleet.Config, tr *tracer, opSpan, op int) func() error {
	var probe *fleetProbe
	if tr != nil {
		probe = newFleetProbe(tr, cfg.Policy, opSpan, op)
		cfg.Policy = probe
	}
	nodes := cfg.Cluster.Nodes
	seen := make([]int, nodes)
	var bad error
	cfg.OnRound = func(ri fleet.RoundInfo) {
		if probe != nil {
			probe.onRound(ri)
		}
		if bad != nil {
			return
		}
		for i := range seen {
			seen[i] = 0
		}
		mark := func(ns []int) {
			for _, n := range ns {
				if n < 0 || n >= nodes {
					bad = fmt.Errorf("round %d: node %d outside the fleet", ri.Round, n)
					return
				}
				seen[n]++
			}
		}
		mark(ri.Free)
		mark(ri.Failed)
		for _, ns := range ri.Leases {
			mark(ns)
		}
		for n, c := range seen {
			if c != 1 && bad == nil {
				bad = fmt.Errorf("round %d: node %d accounted %d times", ri.Round, n, c)
			}
		}
	}
	return func() error {
		if probe != nil {
			probe.finish()
		}
		return bad
	}
}

// fleetDigest hashes the simulated outcome of a fleet run: per job its
// rounds, resizes, preemptions, MFU, mean iteration time and plan. It
// is the determinism oracle's unit of comparison and feeds sim_digest.
func fleetDigest(res *fleet.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "rounds=%d\n", res.Rounds)
	for _, jr := range res.Jobs {
		fmt.Fprintf(h, "%s %d %d %d %d %v", jr.Name, jr.Started, jr.Finished, jr.Resizes, jr.Preemptions, jr.Departed)
		if jr.Result != nil {
			fmt.Fprintf(h, " %x %x %d", jr.Result.MFU, jr.Result.MeanIterTime, len(jr.Result.Iterations))
		}
		if jr.Plan != nil {
			fmt.Fprintf(h, " %s", jr.Plan.String())
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fleetTally extracts what the ledger keeps of a fleet run.
func fleetTally(res *fleet.Result) tally {
	t := tally{
		rounds:    float64(res.Rounds),
		searches:  float64(res.PlanSearches),
		hits:      float64(res.PlanHits),
		warmSeeds: float64(res.PlanWarmSeeds),
		coalesced: float64(res.PlanCoalesced),
	}
	for _, jr := range res.Jobs {
		t.resizes += float64(jr.Resizes)
		t.preemptions += float64(jr.Preemptions)
		if jr.Started >= 0 {
			t.waited += float64(jr.Started - jr.Arrived)
			t.started++
		}
		if jr.Plan != nil {
			t.estIter += jr.Plan.IterTime
			t.plans++
		}
	}
	if res.Trace != nil {
		t.traceEvents = float64(res.Trace.Len())
	}
	return t
}

// fleetWork counts training iterations executed across tenants.
func fleetWork(res *fleet.Result) int {
	n := 0
	for _, jr := range res.Jobs {
		if jr.Result != nil {
			n += len(jr.Result.Iterations)
		}
	}
	return n
}

// ---- fleet-steady ----

type steadyInstance struct {
	seed  uint64
	spec  orchestrator.Spec
	cache *orchestrator.PlanCache
	tr    *tracer
}

func setupSteady(seed uint64, _ string) (instance, error) {
	spec, err := calibratedSpec(steadyNodes, steadyBatch)
	if err != nil {
		return nil, err
	}
	s := &steadyInstance{seed: seed, spec: spec}
	s.cache = orchestrator.NewPlanCache(orchestrator.SearchOptions{Parallelism: concurrency})
	// Pre-warm: every tenant plans the same 2-node lease, so after this
	// one search each op is served by cache hits only.
	if _, err := s.cache.Plan(context.Background(), s.leaseSpec()); err != nil {
		return nil, err
	}
	return s, nil
}

// leaseSpec is the spec the fleet keys its plan on for a fixed
// steadyLease-node lease under a count-based scheduler.
func (s *steadyInstance) leaseSpec() orchestrator.Spec {
	return scopeSpec(s.spec, steadyLease, false)
}

func (s *steadyInstance) config(i, workers int) (fleet.Config, error) {
	corpus, err := newCorpus(corpusSeed(s.seed, "fleet-steady", i))
	if err != nil {
		return fleet.Config{}, err
	}
	tmpl := trainer.DistTrainConfig(s.spec, nil, corpus)
	tmpl.Parallelism = concurrency
	cfg := fleet.Config{
		Cluster:  s.spec.Cluster,
		Policy:   fleet.FairShare,
		Cache:    s.cache,
		Workers:  workers,
		Planners: concurrency,
	}
	for j := 0; j < steadyTenants; j++ {
		cfg.Jobs = append(cfg.Jobs, fleet.JobSpec{
			Name: fmt.Sprintf("t%d", j), Train: tmpl,
			Iters: steadyIters, MinNodes: steadyLease, MaxNodes: steadyLease,
		})
	}
	return cfg, nil
}

func (s *steadyInstance) run(i, workers, opSpan int) (*fleet.Result, int, error) {
	cfg, err := s.config(i, workers)
	if err != nil {
		return nil, 0, err
	}
	partition := watch(&cfg, s.tr, opSpan, i)
	res, err := fleet.Run(cfg)
	if err = checkFleet(res, err, func(int) int { return steadyIters }); err != nil {
		return res, 0, err
	}
	if err := partition(); err != nil {
		return res, 0, err
	}
	if res.PlanSearches != 0 {
		return res, 0, fmt.Errorf("pre-warmed cache ran %d searches", res.PlanSearches)
	}
	return res, fleetWork(res), nil
}

func (s *steadyInstance) op(i, opSpan int) opResult {
	res, work, err := s.run(i, concurrency, opSpan)
	out := opResult{work: work, err: err}
	if res != nil {
		out.digest = func() string { return fleetDigest(res) }
		out.tally = fleetTally(res)
		// GPU-weighted mean of the tenants' simulated MFU.
		for _, jr := range res.Jobs {
			if jr.Result != nil {
				out.mfuNum += jr.Result.MFU * float64(jr.Result.GPUs)
				out.mfuDen += float64(jr.Result.GPUs)
			}
		}
	}
	return out
}

func (s *steadyInstance) reference(i int) (string, error) {
	res, _, err := s.run(i, 1, -1)
	if err != nil {
		return "", err
	}
	return fleetDigest(res), nil
}

func (s *steadyInstance) close() {}

func (s *steadyInstance) trace(tr *tracer) { s.tr = tr }

// ---- fleet-churn ----

type churnInstance struct {
	seed uint64
	spec orchestrator.Spec
	tmp  string // parent of the per-op durable plan-cache dirs
	tr   *tracer
}

func setupChurn(seed uint64, tmp string) (instance, error) {
	spec, err := calibratedSpec(churnNodes, churnBatches[0])
	if err != nil {
		return nil, err
	}
	return &churnInstance{seed: seed, spec: spec, tmp: tmp}, nil
}

// churnRun is one fleet-churn execution and what it leaves behind for
// the ledger.
type churnRun struct {
	res   *fleet.Result
	work  int
	cache *orchestrator.PlanCache
	gen   churnOp
}

// run executes op i. planners is the admission pool size (or
// fleet.SequentialPlanners); trace toggles Config.Trace; cache, when
// non-nil, replaces the op's own fresh durable cache (the ledger runs
// an op twice on one cache).
func (c *churnInstance) run(i, workers, planners int, trace bool, cache *orchestrator.PlanCache, opSpan int) (churnRun, error) {
	gen := genChurn(c.seed, i)
	out := churnRun{gen: gen}
	sc, err := scenario.Parse(gen.Scenario)
	if err != nil {
		return out, err
	}
	corpus, err := newCorpus(corpusSeed(c.seed, "fleet-churn", i))
	if err != nil {
		return out, err
	}
	if cache == nil {
		dir, err := os.MkdirTemp(c.tmp, "plans-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		if cache, err = c.newCache(dir, opSpan, i); err != nil {
			return out, err
		}
	}
	out.cache = cache

	cfg := fleet.Config{
		Cluster:  c.spec.Cluster,
		Policy:   fleet.Priority,
		Scenario: sc,
		Cache:    cache,
		Workers:  workers,
		Planners: planners,
		Trace:    trace,
	}
	for k, j := range gen.Jobs {
		js := c.spec
		js.GlobalBatch = j.Batch
		tmpl := trainer.DistTrainConfig(js, nil, corpus)
		tmpl.Parallelism = concurrency
		cfg.Jobs = append(cfg.Jobs, fleet.JobSpec{
			Name: fmt.Sprintf("g%d", k), Train: tmpl, Iters: j.Iters,
			MinNodes: churnMinNodes, MaxNodes: j.MaxNodes,
			Arrive: j.Arrive, Priority: fleet.Class(j.Class),
		})
	}
	partition := watch(&cfg, c.tr, opSpan, i)
	res, err := fleet.Run(cfg)
	out.res = res
	if err = checkFleet(res, err, func(spec int) int { return gen.Jobs[spec].Iters }); err != nil {
		return out, err
	}
	if err := partition(); err != nil {
		return out, err
	}
	if len(res.Jobs) != gen.Tenants {
		return out, fmt.Errorf("fleet ran %d tenants, generated %d", len(res.Jobs), gen.Tenants)
	}
	if trace && res.Trace == nil {
		return out, fmt.Errorf("Trace on but no merged timeline")
	}
	if n := cache.StoreErrs(); n != 0 {
		return out, fmt.Errorf("%d plan-store errors", n)
	}
	out.work = fleetWork(res)
	return out, nil
}

// newCache opens a durable plan cache over dir, the way
// fleet.Config.PlanCacheDir would, with the timing decorator and the
// candidate observer in place when tracing.
func (c *churnInstance) newCache(dir string, opSpan, i int) (*orchestrator.PlanCache, error) {
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	var st store.Store = disk
	opts := orchestrator.SearchOptions{Parallelism: concurrency}
	if c.tr != nil {
		st = &timedStore{inner: disk, tr: c.tr, parent: opSpan, op: i}
		opts.OnCandidate = c.tr.cand.observe
	}
	return orchestrator.NewPersistentPlanCache(opts, st), nil
}

func (c *churnInstance) op(i, opSpan int) opResult {
	r, err := c.run(i, concurrency, concurrency, true, nil, opSpan)
	out := opResult{work: r.work, err: err}
	if r.res != nil {
		out.digest = func() string { return fleetDigest(r.res) }
		out.tally = fleetTally(r.res)
	}
	return out
}

// reference runs the op on the sequential reference executor at one
// worker — the mode every pool size must reproduce byte for byte.
func (c *churnInstance) reference(i int) (string, error) {
	r, err := c.run(i, 1, fleet.SequentialPlanners, true, nil, -1)
	if err != nil {
		return "", err
	}
	return fleetDigest(r.res), nil
}

func (c *churnInstance) close() {}

func (c *churnInstance) trace(tr *tracer) { c.tr = tr }

// scopeSpec scopes a fleet-wide spec to a packed n-node lease the way
// the fleet does before asking the plan cache.
func scopeSpec(base orchestrator.Spec, n int, shaped bool) orchestrator.Spec {
	l := packedLease(n)
	s := base
	if shaped {
		s.Cluster = l.Placed(base.Cluster)
		s.Placement = l.Shape()
	} else {
		s.Cluster = l.Subcluster(base.Cluster)
	}
	s.MaxGPUs = 0
	return s
}
