package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// buildSpec wires a calibrated spec over a shared fleet of the given
// node count.
func buildSpec(t *testing.T, nodes, bs int) (orchestrator.Spec, *data.Corpus) {
	t.Helper()
	cl := cluster.Production(nodes)
	p, err := profiler.New(profiler.DefaultOptions(cl, model.MLLM9B()))
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
	return orchestrator.Spec{Cluster: cl, Model: model.MLLM9B(), GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}, corpus
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
// trainer on that cluster — the Job seam changed how the loop is
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
func perturbedFleet(t *testing.T, spec orchestrator.Spec, corpus *data.Corpus, workers int) Config {
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
		Workers:  workers,
		Trace:    true,
	}
}

// TestFleetDeterminism pins the K-job contract: results and the merged
// fleet trace are byte-identical across repeated runs and across
// worker-pool sizes, even under fleet-scope churn (node failure +
// rejoin, scenario arrival, departure) with elastic fair-share
// resizes. Run under -race by the CI race gate.
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
	for i, workers := range []int{1, 1, 4, runtime.GOMAXPROCS(0)} {
		res, err := runChecked(t, perturbedFleet(t, spec, corpus, workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("workers %d: job %s failed: %v", workers, jr.Name, jr.Err)
			}
			if jr.Result == nil {
				t.Fatalf("workers %d: job %s has no result", workers, jr.Name)
			}
		}
		got := strip(res)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Errorf("workers %d: job results diverged", workers)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("workers %d: merged trace diverged (%d vs %d bytes)", workers, len(got.trace), len(want.trace))
		}
	}
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
	cfg := perturbedFleet(t, spec, corpus, 0)
	cfg.PlanCacheDir = dir
	res1, err := runChecked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanSearches == 0 {
		t.Fatal("first run against an empty cache dir ran no searches")
	}
	t.Logf("cold run: %d searches, %d warm seeds, %d pruned candidates",
		res1.PlanSearches, res1.PlanWarmSeeds, res1.PlanPruned)

	// A fresh profiler with identical calibration must still hit: the
	// durable key is calibration content, not the pointer.
	spec2, corpus2 := buildSpec(t, 8, 32)
	cfg2 := perturbedFleet(t, spec2, corpus2, 0)
	cfg2.PlanCacheDir = dir
	res2, err := runChecked(t, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PlanSearches != 0 {
		t.Errorf("second run against a warm cache dir ran %d cold searches, want 0", res2.PlanSearches)
	}
	if res2.PlanWarmHits == 0 {
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

	// Supplying both a cache and a cache dir is a config error.
	cfg3 := perturbedFleet(t, spec, corpus, 0)
	cfg3.Cache = orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	cfg3.PlanCacheDir = dir
	if _, err := runChecked(t, cfg3); err == nil {
		t.Error("Cache + PlanCacheDir accepted, want config error")
	}
}

// TestFleetChurnSemantics re-runs the perturbed fleet once and checks
// the scheduling story it should tell: the suspended tenant resumed
// (resize count > 0), the departed tenant ended early with fewer
// iterations, and the scenario arrival produced a third tenant.
func TestFleetChurnSemantics(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	res, err := runChecked(t, perturbedFleet(t, spec, corpus, 0))
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

// TestFleetPlanCacheSingleflight pins the speed win: K concurrent
// tenants with identical specs and equal lease sizes pay for exactly
// one §4.3 plan search — K-1 admissions coalesce onto its wave.
func TestFleetPlanCacheSingleflight(t *testing.T) {
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
	// The caller's cache is warm for the next fleet with the same spec.
	if cache.Len() != 1 {
		t.Errorf("shared cache holds %d fingerprints, want 1", cache.Len())
	}
	if res.PlanSearches != 1 {
		t.Errorf("%d identical tenants ran %d plan searches, want exactly 1", k, res.PlanSearches)
	}
	if res.PlanCoalesced != k-1 {
		t.Errorf("%d identical tenants coalesced %d plan requests, want %d", k, res.PlanCoalesced, k-1)
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
	cfg := perturbedFleet(t, spec, corpus, 0)
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

// TestNoteCostsNothingUntraced: a note's payload travels by value and
// becomes an Args map only when a trace is attached, so an untraced
// fleet allocates nothing for the events it drops — and a traced one
// writes the same sorted-key args a map literal did.
func TestNoteCostsNothingUntraced(t *testing.T) {
	f := &runner{round: 3}
	name, reason := "g7", "preempted by high"
	emit := func() {
		f.note("job-arrive", noteInt("job", 300), noteStr("name", name), noteStr("class", classHigh.String()))
		f.note("job-preempt", noteInt("job", 300), noteStr("reason", reason))
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
