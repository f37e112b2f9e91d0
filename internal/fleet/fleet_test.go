package fleet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// buildSpec wires a calibrated spec over a shared fleet of the given
// node count.
func buildSpec(t *testing.T, nodes, bs int) (orchestrator.Spec, *data.Corpus) {
	t.Helper()
	return buildModelSpec(t, model.MLLM9B(), nodes, bs)
}

// buildModelSpec is buildSpec for any model, timed by its own profiler.
func buildModelSpec(t *testing.T, m model.MLLM, nodes, bs int) (orchestrator.Spec, *data.Corpus) {
	t.Helper()
	cl := cluster.Production(nodes)
	p, err := profiler.New(profiler.DefaultOptions(cl, m))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 120); err != nil {
		t.Fatal(err)
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}, corpus
}

func traceBytes(t *testing.T, tr *metrics.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetOneJobEquivalence is the refactor's core guarantee: a fleet
// of exactly one job whose lease covers the whole shared cluster
// produces a Result and a trace byte-identical to the standalone
// trainer on that cluster — stepping it from the fleet changed how the loop is
// driven, never what it computes.
func TestFleetOneJobEquivalence(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	const iters = 5

	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := trainer.DistTrainConfig(spec, plan, corpus)
	ref.GradientDim = 4
	refTrace := metrics.NewTrace()
	ref.Trace = refTrace
	rt, err := trainer.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	want, err := rt.Run(iters)
	if err != nil {
		t.Fatal(err)
	}

	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	tmpl.GradientDim = 4
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs:    []JobSpec{{Name: "solo", Train: tmpl, Iters: iters, MinNodes: 4, MaxNodes: 4}},
		Trace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("fleet ran %d jobs, want 1", len(res.Jobs))
	}
	jr := res.Jobs[0]
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if !reflect.DeepEqual(jr.Result, want) {
		t.Errorf("fleet 1-job Result diverged from standalone:\ngot  %+v\nwant %+v", jr.Result, want)
	}
	if got, wantB := traceBytes(t, jr.Trace), traceBytes(t, refTrace); !bytes.Equal(got, wantB) {
		t.Errorf("fleet 1-job trace diverged from standalone (%d vs %d bytes)", len(got), len(wantB))
	}
	if res.PlanSearches != 1 {
		t.Errorf("1-job fleet ran %d plan searches, want 1", res.PlanSearches)
	}
}

// perturbedFleet is the K-job configuration the determinism test runs
// repeatedly: three tenants under fair-share, a node failure that
// suspends one tenant mid-run, a rejoin, a scenario-driven arrival and
// an early departure.
func perturbedFleet(t *testing.T, spec orchestrator.Spec, corpus *data.Corpus) Config {
	t.Helper()
	sc, err := scenario.Parse("node-fail:iter=2,node=6; node-join:iter=4,node=6; job-arrive:iter=3,job=1; job-depart:iter=4,job=0")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	tmpl.GradientDim = 2
	return Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8},
			{Name: "b", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 4, Arrive: 1},
		},
		Policy:   FairShare,
		Scenario: sc,
		Trace:    true,
	}
}

// TestFleetDeterminism pins the K-job contract: results and the merged
// fleet trace are byte-identical across repeated runs, even under
// fleet-scope churn (node failure + rejoin, scenario arrival,
// departure) with elastic fair-share resizes. The determinism gate
// reruns it at GOMAXPROCS=1; TestGoldenTraceBytes pins the trace.
func TestFleetDeterminism(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	type outcome struct {
		jobs  []JobResult
		trace []byte
	}
	strip := func(r *Result) outcome {
		jobs := append([]JobResult(nil), r.Jobs...)
		for i := range jobs {
			jobs[i].Trace = nil // compared via the merged trace bytes
		}
		return outcome{jobs: jobs, trace: traceBytes(t, r.Trace)}
	}
	var want outcome
	for i := range 2 {
		res, err := runChecked(t, perturbedFleet(t, spec, corpus))
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("run %d: job %s failed: %v", i, jr.Name, jr.Err)
			}
			if jr.Result == nil {
				t.Fatalf("run %d: job %s has no result", i, jr.Name)
			}
		}
		got := strip(res)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Error("repeated run: job results diverged")
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("repeated run: merged trace diverged (%d vs %d bytes)", len(got.trace), len(want.trace))
		}
	}
}

// TestFleetSharedBatchesMatchStandalone: tenants read each iteration's
// prepared batch off the run's batch cache, and tenants under one plan
// its rank outcomes too, while a tenant with a workload-shift scenario
// prepares and simulates its own; every tenant's Result — and, traced,
// its timeline byte for byte — is identical to a standalone trainer.Run
// of its plan on a cluster of its lease size.
// Mixed lease sizes give tenants of one batch class different plans.
func TestFleetSharedBatchesMatchStandalone(t *testing.T) {
	const iters = 3
	shift, err := scenario.Parse("workload-shift:iters=1-2,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		leases []int // the last tenant's scenario shifts its batches
		trace  bool
	}{
		{"one plan", []int{2, 2, 2, 2, 2}, false},
		{"one plan traced", []int{2, 2, 2, 2, 2}, true},
		{"mixed leases traced", []int{2, 3, 4, 2, 3, 4, 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := 0
			for _, n := range tc.leases {
				nodes += n
			}
			spec, corpus := buildSpec(t, nodes, 32)
			tmpl := trainer.DistTrainConfig(spec, nil, corpus)
			tmpl.GradientDim = 4
			cfg := Config{Cluster: spec.Cluster, Trace: tc.trace}
			for j, n := range tc.leases {
				js := JobSpec{Name: fmt.Sprintf("t%d", j), Train: tmpl, Iters: iters, MinNodes: n, MaxNodes: n}
				if j == len(tc.leases)-1 {
					js.Train.Scenario = shift
				}
				cfg.Jobs = append(cfg.Jobs, js)
			}
			res, err := runChecked(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range res.Jobs {
				if jr.Err != nil || jr.Result == nil {
					t.Fatalf("job %s: %v", jr.Name, jr.Err)
				}
				ref := cfg.Jobs[jr.Spec].Train
				ref.Spec.Cluster = cluster.Production(tc.leases[jr.Spec])
				ref.Plan = jr.Plan
				if tc.trace {
					ref.Trace = metrics.NewTrace()
				}
				want, err := trainer.Run(ref, iters)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(jr.Result, want) {
					t.Errorf("job %s diverged from standalone:\ngot  %+v\nwant %+v", jr.Name, jr.Result, want)
				}
				if tc.trace && !bytes.Equal(traceBytes(t, jr.Trace), traceBytes(t, ref.Trace)) {
					t.Errorf("job %s: trace diverged from standalone", jr.Name)
				}
			}
		})
	}
}

// diskCache is a fresh persistent plan cache over the store in dir, the
// cache benchmark/'s fleet-churn workload hands the fleet.
func diskCache(t *testing.T, dir string) *orchestrator.PlanCache {
	t.Helper()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return orchestrator.NewPersistentPlanCache(orchestrator.SearchOptions{}, st)
}

// TestFleetPlanCachePersistsAcrossRuns is the durable-control-plane
// E2E gate: a second fleet run against a populated plan-cache dir
// performs zero cold searches — every repeated spec is served from
// disk, across cache instances AND across freshly calibrated profiler
// instances (the fingerprint is content-addressed) — and lands on
// identical plans.
func TestFleetPlanCachePersistsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	spec, corpus := buildSpec(t, 8, 32)
	cfg := perturbedFleet(t, spec, corpus)
	cfg.Cache = diskCache(t, dir)
	res1, err := runChecked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanSearches == 0 {
		t.Fatal("first run against an empty cache dir ran no searches")
	}
	t.Logf("cold run: %d searches, %d warm seeds", res1.PlanSearches, res1.PlanWarmSeeds)

	// A fresh profiler with identical calibration must still hit: the
	// durable key is calibration content, not the pointer.
	spec2, corpus2 := buildSpec(t, 8, 32)
	cfg2 := perturbedFleet(t, spec2, corpus2)
	cfg2.Cache = diskCache(t, dir)
	res2, err := runChecked(t, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PlanSearches != 0 {
		t.Errorf("second run against a warm cache dir ran %d cold searches, want 0", res2.PlanSearches)
	}
	if cfg2.Cache.WarmHits() == 0 {
		t.Error("second run recorded no warm hits")
	}
	if len(res1.Jobs) != len(res2.Jobs) {
		t.Fatalf("run shapes diverged: %d vs %d jobs", len(res1.Jobs), len(res2.Jobs))
	}
	for i := range res1.Jobs {
		if !reflect.DeepEqual(res1.Jobs[i].Plan, res2.Jobs[i].Plan) {
			t.Errorf("job %s: warm plan diverged from cold plan", res1.Jobs[i].Name)
		}
	}
}

// TestFleetChurnSemantics re-runs the perturbed fleet once and checks
// the scheduling story it should tell: the suspended tenant resumed
// (resize count > 0), the departed tenant ended early with fewer
// iterations, and the scenario arrival produced a third tenant.
func TestFleetChurnSemantics(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	res, err := runChecked(t, perturbedFleet(t, spec, corpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("fleet ran %d tenants, want 3 (two submissions + one scenario arrival)", len(res.Jobs))
	}
	a, b, b2 := res.Jobs[0], res.Jobs[1], res.Jobs[2]
	if !a.Departed {
		t.Errorf("tenant a should have departed at round 4: %+v", a)
	}
	if len(a.Result.Iterations) >= 6 {
		t.Errorf("departed tenant a executed %d iterations, want < 6", len(a.Result.Iterations))
	}
	if a.Resizes == 0 {
		t.Errorf("tenant a never resized under fair-share churn")
	}
	if b.Resizes == 0 {
		t.Errorf("tenant b survived a node failure without a resize (suspend/resume or shrink)")
	}
	if len(b.Result.Iterations) != 4 {
		t.Errorf("tenant b executed %d iterations, want 4", len(b.Result.Iterations))
	}
	if b2.Spec != 1 || b2.Arrived != 3 {
		t.Errorf("scenario arrival: got spec %d arrived %d, want spec 1 arrived 3", b2.Spec, b2.Arrived)
	}
	if len(b2.Result.Iterations) != 4 {
		t.Errorf("tenant b2 executed %d iterations, want 4", len(b2.Result.Iterations))
	}
	// Every applied resize is a costed reconfiguration: downtime must
	// show up in the affected tenants' results.
	for _, jr := range res.Jobs {
		if jr.Resizes > 0 && jr.Result.DowntimeSeconds <= 0 {
			t.Errorf("tenant %s resized %d times with zero downtime", jr.Name, jr.Resizes)
		}
	}
}

// TestFleetIdenticalTenantsSearchOnce pins the speed win: K concurrent
// tenants with identical specs and equal lease sizes pay for exactly
// one §4.3 plan search — the other K-1 admissions are cache hits.
func TestFleetIdenticalTenantsSearchOnce(t *testing.T) {
	const k = 4
	spec, corpus := buildSpec(t, 2*k, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	jobs := make([]JobSpec, k)
	for i := range jobs {
		jobs[i] = JobSpec{Name: fmt.Sprintf("clone%d", i), Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2}
	}
	cache := orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	res, err := runChecked(t, Config{Cluster: spec.Cluster, Jobs: jobs, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
	}
	if res.PlanSearches != 1 || res.PlanHits != k-1 {
		t.Errorf("%d identical tenants ran %d plan searches and %d hits, want 1 and %d", k, res.PlanSearches, res.PlanHits, k-1)
	}
	// The caller's cache is warm for the next fleet with the same spec:
	// planning a 2-node lease again is a hit.
	if _, err := cache.Plan(context.Background(), spec.ForLease(spec.Cluster, cluster.NewLease(0, 1), false)); err != nil {
		t.Fatal(err)
	}
	if cache.Searches() != 1 || cache.Hits() != k {
		t.Errorf("replanning a 2-node lease: %d searches, %d hits; want 1 and %d", cache.Searches(), cache.Hits(), k)
	}
	// Identical tenants on identical leases train identically.
	for _, jr := range res.Jobs[1:] {
		if !reflect.DeepEqual(jr.Result, res.Jobs[0].Result) {
			t.Errorf("identical tenants diverged: %s vs %s", jr.Name, res.Jobs[0].Name)
		}
	}
}

// TestFleetFairShareGrowsOnCompletion pins the elastic path: when one
// tenant completes, a fair-share fleet grows the survivor's lease
// toward its share via a costed reconfiguration, and the survivor ends
// on more nodes than it started with.
func TestFleetFairShareGrowsOnCompletion(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "short", Train: tmpl, Iters: 2, MinNodes: 4, MaxNodes: 4},
			{Name: "long", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8},
		},
		Policy: FairShare,
	})
	if err != nil {
		t.Fatal(err)
	}
	long := res.Jobs[1]
	if long.Err != nil {
		t.Fatal(long.Err)
	}
	if long.Resizes == 0 {
		t.Fatalf("long job never grew after the short job completed: %+v", long)
	}
	if long.Result.PlanSwitches == 0 || long.Result.DowntimeSeconds <= 0 {
		t.Errorf("growth was not a costed reconfiguration: switches=%d downtime=%g",
			long.Result.PlanSwitches, long.Result.DowntimeSeconds)
	}
}

// TestFleetLeaseInvariantE2E drives a real multi-tenant run with churn
// through runChecked — at every scheduling round free nodes, failed
// nodes and the tenants' leases partition the cluster — and pins that
// the OnRound seam the invariants ride on actually fires.
func TestFleetLeaseInvariantE2E(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	cfg := perturbedFleet(t, spec, corpus)
	rounds := 0
	cfg.OnRound = func(RoundInfo) { rounds++ }
	if _, err := runChecked(t, cfg); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("OnRound never fired")
	}
}

// TestFleetConfigValidation covers the configuration error paths.
func TestFleetConfigValidation(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	base := Config{Cluster: spec.Cluster, Jobs: []JobSpec{{Train: tmpl, Iters: 1}}}

	for name, mut := range map[string]func(*Config){
		"no jobs":         func(c *Config) { c.Jobs = nil },
		"zero iters":      func(c *Config) { c.Jobs[0].Iters = 0 },
		"negative arrive": func(c *Config) { c.Jobs[0].Arrive = -1 },
		"min above max":   func(c *Config) { c.Jobs[0].MinNodes = 2; c.Jobs[0].MaxNodes = 1 },
		"max above fleet": func(c *Config) { c.Jobs[0].MaxNodes = 99 },
		"wrong cluster":   func(c *Config) { c.Cluster = cluster.Production(3) },
		"generator scenario": func(c *Config) {
			c.Scenario = mustParse(t, "random-stragglers:seed=1,ranks=2,prob=0.5,max=2")
		},
	} {
		cfg := base
		cfg.Jobs = append([]JobSpec(nil), base.Jobs...)
		mut(&cfg)
		if _, err := runChecked(t, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Non-fleet kinds are rejected in the fleet scenario.
	sc, err := scenario.Parse("straggler:iters=0-1,factor=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Scenario = sc
	if _, err := runChecked(t, cfg); err == nil {
		t.Error("job-level event accepted in fleet scenario")
	}
}

// TestRunLeavesCallerJobsUntouched pins that Run reads Config.Jobs and
// never writes it: one Jobs slice with MinNodes/MaxNodes 0 drives an
// 8-node fleet, then a 4-node one, and the defaults each run applies
// (MaxNodes = the fleet) stay with that run. Between the runs the test
// retargets each Train template at the smaller cluster, since a
// template must name its fleet; the node bounds are left as they are.
func TestRunLeavesCallerJobsUntouched(t *testing.T) {
	jobs := make([]JobSpec, 2)
	for _, nodes := range []int{8, 4} {
		spec, corpus := buildSpec(t, nodes, 32)
		for i := range jobs {
			jobs[i].Name, jobs[i].Iters = "d", 2
			jobs[i].Train = trainer.DistTrainConfig(spec, nil, corpus)
		}
		widest := 0
		res, err := runChecked(t, Config{Cluster: spec.Cluster, Jobs: jobs, OnRound: func(ri RoundInfo) {
			for _, l := range ri.Leases {
				widest = max(widest, len(l))
			}
		}})
		if err != nil {
			t.Fatalf("%d-node fleet: %v", nodes, err)
		}
		for i, js := range jobs {
			if js.MinNodes != 0 || js.MaxNodes != 0 {
				t.Errorf("%d-node fleet: the caller's job %d reads [%d,%d] nodes after Run, want [0,0]", nodes, i, js.MinNodes, js.MaxNodes)
			}
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("%d-node fleet: tenant %s: %v", nodes, jr.Name, jr.Err)
			}
		}
		if widest != nodes {
			t.Errorf("%d-node fleet: widest lease %d nodes, want MaxNodes 0 to default to the fleet's %d", nodes, widest, nodes)
		}
	}
}

// idleController is a trainer.Controller that never switches.
type idleController struct{}

func (idleController) Observe(trainer.Observation)     {}
func (idleController) Pending(int) *trainer.PlanSwitch { return nil }

// TestFleetRejectsController: a tenant's plan follows its lease, so
// Run refuses a JobSpec that carries a re-planning controller before
// any round runs.
func TestFleetRejectsController(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	tmpl.Controller = idleController{}
	res, err := Run(Config{Cluster: spec.Cluster, Jobs: []JobSpec{{Train: tmpl, Iters: 1}}})
	if err == nil || !strings.Contains(err.Error(), "Train.Controller") {
		t.Fatalf("Run = %v, %v; want a Train.Controller rejection", res, err)
	}
}

// TestFleetStarvation pins the stuck-queue exit: a job whose MinNodes
// can never be satisfied is finalised with an error instead of
// spinning the scheduler forever.
func TestFleetStarvation(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "hog", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
			{Name: "late", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2, Arrive: 1},
		},
		Policy: fifo, // no shrink-to-admit: late waits for hog
	})
	if err != nil {
		t.Fatal(err)
	}
	late := res.Jobs[1]
	if late.Err != nil {
		t.Fatalf("late job should run after hog completes: %v", late.Err)
	}
	if late.Started <= res.Jobs[0].Finished-1 {
		t.Errorf("late started round %d, hog finished round %d", late.Started, res.Jobs[0].Finished)
	}

	// An impossible job starves deterministically.
	res, err = runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "possible", Train: tmpl, Iters: 1, MinNodes: 1, MaxNodes: 1},
			{Name: "blocked", Train: tmpl, Iters: 1, MinNodes: 2, MaxNodes: 2},
			{Name: "shadowed", Train: tmpl, Iters: 1, MinNodes: 1, MaxNodes: 1},
		},
		Scenario: mustParse(t, "node-fail:iter=0,node=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Err != nil {
		t.Errorf("possible job failed: %v", res.Jobs[0].Err)
	}
	if res.Jobs[1].Err == nil {
		t.Error("blocked job should starve: 2 nodes can never be free")
	}
	if res.Jobs[2].Err == nil {
		t.Error("shadowed job should starve behind the blocked FIFO head")
	}
}

func mustParse(t *testing.T, spec string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestNoteCostsNothingUntraced: a note's payload travels by value as
// typed Args, copied into the log only when a trace is attached, so an
// untraced fleet allocates nothing for the events it drops — and a
// traced one writes the same sorted-key args a map literal did.
func TestNoteCostsNothingUntraced(t *testing.T) {
	f := &runner{round: 3}
	name, reason := "g7", "preempted by high"
	emit := func() {
		f.note("job-arrive", metrics.Int("job", 300), metrics.Str("name", name), metrics.Str("class", classHigh.String()))
		f.note("job-preempt", metrics.Int("job", 300), metrics.Str("reason", reason))
	}
	if got := testing.AllocsPerRun(100, emit); got != 0 {
		t.Errorf("two notes with tracing off allocated %v times, want 0", got)
	}
	f.fleetTrace = metrics.NewTrace()
	emit()
	const want = `{"traceEvents":[` +
		`{"name":"job-arrive","cat":"fleet","ph":"i","ts":3000000,"pid":0,"tid":0,"args":{"class":"high","job":300,"name":"g7"}},` +
		`{"name":"job-preempt","cat":"fleet","ph":"i","ts":3000000,"pid":0,"tid":0,"args":{"job":300,"reason":"preempted by high"}}]}` + "\n"
	if got := string(traceBytes(t, f.fleetTrace)); got != want {
		t.Errorf("traced notes wrote\n%swant\n%s", got, want)
	}
}

// TestFleetSharedTracedTenantsRecordEveryOp: two traced tenants of one
// class on equal leases read each iteration's rank outcomes off the
// run's batch cache, and each trace still holds every op of its run —
// the event count pinned before tenants shared outcome vectors — in
// the same bytes as the other's.
func TestFleetSharedTracedTenantsRecordEveryOp(t *testing.T) {
	const iters, events = 3, 590
	spec, corpus := buildSpec(t, 4, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	cfg := Config{Cluster: spec.Cluster, Trace: true}
	for j := 0; j < 2; j++ {
		cfg.Jobs = append(cfg.Jobs, JobSpec{Name: fmt.Sprintf("t%d", j), Train: tmpl, Iters: iters, MinNodes: 2, MaxNodes: 2})
	}
	res, err := runChecked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil || jr.Trace == nil {
			t.Fatalf("job %s: err %v, trace %v", jr.Name, jr.Err, jr.Trace)
		}
		if got := jr.Trace.Len(); got != events {
			t.Errorf("job %s recorded %d events, want %d", jr.Name, got, events)
		}
	}
	if !bytes.Equal(traceBytes(t, res.Jobs[0].Trace), traceBytes(t, res.Jobs[1].Trace)) {
		t.Error("two tenants sharing every outcome vector wrote different timelines")
	}
}
