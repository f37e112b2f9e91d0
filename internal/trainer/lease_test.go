package trainer

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
)

// TestLeasedRunMatchesStandalone pins the lease seam: a job holding an
// n-node lease on a larger shared cluster runs byte-identically to a
// standalone trainer on an n-node cluster, regardless of WHICH nodes
// the lease names — only the count enters the cost model.
func TestLeasedRunMatchesStandalone(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	want, err := rt.Run(3)
	if err != nil {
		t.Fatal(err)
	}

	shared := spec
	shared.Cluster = cluster.Production(12)
	for _, lease := range []cluster.Lease{
		cluster.NewLease(0, 1, 2, 3),
		cluster.NewLease(3, 5, 9, 11), // scattered placement: same cost model
	} {
		lcfg := DistTrainConfig(shared, plan, corpus)
		l := lease
		lcfg.Lease = &l
		lrt, err := New(lcfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lrt.Run(3)
		lrt.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lease %v diverged from the standalone 4-node run", lease)
		}
	}
}

// TestJobResizeContract covers the resize error paths: no lease, bad
// lease, plan too big for the lease — all reject without touching the
// job — and a legal resize applies exactly one costed reconfiguration.
func TestJobResizeContract(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 8, 32, model.FullTraining)
	smaller := spec
	smaller.Cluster = cluster.Production(4)
	smallPlan, err := orchestrator.PlanDistTrain(smaller)
	if err != nil {
		t.Fatal(err)
	}
	bigPlan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}

	// A standalone job (no lease) cannot resize.
	cfg := DistTrainConfig(smaller, smallPlan, corpus)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	j, err := rt.NewJob(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Resize(cluster.NewLease(0, 1), smallPlan, "x"); err == nil {
		t.Error("resize without a lease accepted")
	}

	// A leased job rejects invalid resizes and applies a valid grow.
	lcfg := DistTrainConfig(spec, smallPlan, corpus)
	lease := cluster.NewLease(0, 1, 2, 3)
	lcfg.Lease = &lease
	lrt, err := New(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lrt.Close()
	lj, err := lrt.NewJob(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := lj.Step(); err != nil {
		t.Fatal(err)
	}
	if err := lj.Resize(cluster.NewLease(7, 8), smallPlan, "x"); err == nil {
		t.Error("lease outside the shared cluster accepted")
	}
	if err := lj.Resize(cluster.NewLease(0), bigPlan, "x"); err == nil {
		t.Error("plan larger than the lease accepted")
	}
	if got := lj.cls.spec.Cluster.Nodes; got != lease.NodeCount() {
		t.Fatalf("rejected resizes moved the priced geometry to %d nodes", got)
	}
	grown := cluster.NewLease(0, 1, 2, 3, 4, 5, 6, 7)
	if err := lj.Resize(grown, bigPlan, "grow to 8 nodes"); err != nil {
		t.Fatal(err)
	}
	if got := lj.cls.spec.Cluster.Nodes; got != grown.NodeCount() {
		t.Fatalf("priced geometry after grow = %d nodes, want %d", got, grown.NodeCount())
	}
	for !lj.Done() {
		if err := lj.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := lj.Finish()
	if res.PlanSwitches != 1 || len(res.Replans) != 1 || res.DowntimeSeconds <= 0 {
		t.Errorf("grow was not one costed reconfiguration: switches=%d replans=%d downtime=%g",
			res.PlanSwitches, len(res.Replans), res.DowntimeSeconds)
	}
	if res.Replans[0].Reason != "grow to 8 nodes" {
		t.Errorf("replan reason %q", res.Replans[0].Reason)
	}
}

// switchOnce is an in-package stub controller: it hands the runtime
// one PlanSwitch at a fixed boundary.
type switchOnce struct {
	at   int
	plan *orchestrator.Plan
}

func (s *switchOnce) Observe(Observation) {}
func (s *switchOnce) Pending(iter int) *PlanSwitch {
	if iter != s.at || s.plan == nil {
		return nil
	}
	p := s.plan
	s.plan = nil
	return &PlanSwitch{Plan: p, Reason: "stub switch"}
}

// TestJobAppliesAndRejectsPlanSwitches drives the controller seam from
// inside the trainer: a feasible switch applies as one costed
// reconfiguration; an infeasible plan is rejected at the boundary and
// the run continues on the incumbent.
func TestJobAppliesAndRejectsPlanSwitches(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := orchestrator.PlanMegatron(spec)
	if err != nil {
		t.Fatal(err)
	}

	run := func(ctl Controller) *Result {
		t.Helper()
		cfg := DistTrainConfig(spec, plan, corpus)
		cfg.Controller = ctl
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		j, err := rt.NewJob(3)
		if err != nil {
			t.Fatal(err)
		}
		if j.n != 3 || j.Iteration() != 0 || j.clock != 0 {
			t.Fatalf("fresh job state: n=%d i=%d clock=%g", j.n, j.Iteration(), j.clock)
		}
		for !j.Done() {
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
		}
		// The clock cursor covers every executed iteration plus the
		// downtime charged: a rejected switch adds nothing, an applied
		// one charges its reconfiguration.
		clock, res := j.clock, j.Finish()
		if want := simulatedWall(res); math.Abs(clock-want) > 1e-9*want {
			t.Fatalf("clock %g, iterations + downtime %g", clock, want)
		}
		return res
	}

	applied := run(&switchOnce{at: 1, plan: alt})
	if applied.PlanSwitches != 1 || applied.Strategy != plan.Strategy {
		t.Errorf("feasible switch: switches=%d strategy=%s", applied.PlanSwitches, applied.Strategy)
	}
	if len(applied.Replans) != 1 || applied.Replans[0].Strategy != alt.Strategy {
		t.Errorf("replan record: %+v", applied.Replans)
	}

	bad := *alt
	bad.Modules[model.Backbone].Config.DP = 0 // degenerate: checkPlan rejects
	rejected := run(&switchOnce{at: 1, plan: &bad})
	if rejected.PlanSwitches != 0 || len(rejected.Replans) != 0 {
		t.Errorf("infeasible switch applied: %+v", rejected.Replans)
	}
	if err := func() error {
		cfg := DistTrainConfig(spec, plan, corpus)
		rt, err := New(cfg)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.NewJob(0); err == nil {
			t.Error("0-iteration job accepted")
		}
		j, err := rt.NewJob(1)
		if err != nil {
			return err
		}
		for !j.Done() {
			if err := j.Step(); err != nil {
				return err
			}
		}
		if err := j.Step(); err == nil {
			t.Error("step after completion accepted")
		}
		j.Finish()
		if err := j.Resize(cluster.NewLease(0), plan, "x"); err == nil {
			t.Error("resize after Finish accepted")
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
}

// TestNewJobRearmsRuntime: the run loop's state lives on the runtime,
// so NewJob on a runtime that already ran re-arms it. The Result the
// earlier run handed out must stay untouched, the re-armed run must
// equal a fresh runtime's — its failure rewinds to its own checkpoints,
// not to the earlier run's newer ones — and an invalid NewJob must
// leave an armed run as it was, still stepping.
func TestNewJobRearmsRuntime(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	fail, err := scenario.Parse("failure:iter=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.GradientDim, cfg.CheckpointEvery, cfg.Scenario = 4, 1, fail
	fresh, err := Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	first, err := rt.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	kept := cloneResult(first)
	second, err := rt.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Errorf("re-arming changed the first Result:\n got %+v\nwant %+v", first, kept)
	}
	if !reflect.DeepEqual(second, fresh) {
		t.Errorf("re-armed run differs from a fresh runtime's:\n got %+v\nwant %+v", second, fresh)
	}

	if _, err := rt.NewJob(2); err != nil {
		t.Fatal(err)
	}
	if err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewJob(0); err == nil {
		t.Error("NewJob(0) on an armed runtime accepted")
	}
	if rt.Iteration() != 1 || rt.Done() {
		t.Fatalf("NewJob(0) moved the armed run: iteration %d, done %v", rt.Iteration(), rt.Done())
	}
	for !rt.Done() {
		if err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if third := rt.Finish(); !reflect.DeepEqual(third, fresh) {
		t.Errorf("run after a rejected NewJob differs from a fresh runtime's:\n got %+v\nwant %+v", third, fresh)
	}
}

// cloneResult returns a deep copy of r.
func cloneResult(r *Result) *Result {
	c := *r
	c.Iterations = slices.Clone(r.Iterations)
	c.Recoveries = slices.Clone(r.Recoveries)
	c.Replans = slices.Clone(r.Replans)
	c.GradientSum = slices.Clone(r.GradientSum)
	return &c
}

// TestPlanChangeRepricesLikeFreshRuntime is the staleness check on
// what the runtime resolves once per plan (stage geometry, link
// prices, the encoder/generator rates and the backbone stage pair):
// after a controller plan switch or a Resize onto a plan with
// other encoder/generator widths and another DP, every later iteration
// reports the IterationStats of a fresh Runtime built on that plan.
func TestPlanChangeRepricesLikeFreshRuntime(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 8, 32, model.FullTraining)
	smaller := spec
	smaller.Cluster = cluster.Production(4)
	from, err := orchestrator.PlanDistTrain(smaller) // widths 1/2/1, DP 8
	if err != nil {
		t.Fatal(err)
	}
	to, err := orchestrator.PlanMegatron(spec) // widths 8/8/8, DP 2
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []model.Module{model.Encoder, model.Generator} {
		if from.Modules[mod].Config.ModelParallelWidth() == to.Modules[mod].Config.ModelParallelWidth() {
			t.Fatalf("fixture: %v width does not change across the switch", mod)
		}
	}
	if from.Modules[model.Backbone].Config.DP == to.Modules[model.Backbone].Config.DP {
		t.Fatal("fixture: DP does not change across the switch")
	}
	four, eight := cluster.NewLease(0, 1, 2, 3), cluster.NewLease(0, 1, 2, 3, 4, 5, 6, 7)
	start := func(lease cluster.Lease, plan *orchestrator.Plan, ctl Controller) *Runtime {
		t.Helper()
		cfg := DistTrainConfig(spec, plan, corpus)
		cfg.Lease = &lease
		cfg.Controller = ctl
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	var want []IterationStats
	fresh := start(eight, to, nil)
	for i := 1; i < 3; i++ {
		st, err := fresh.RunIterationSequential(i)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st)
	}
	for name, c := range map[string]struct {
		rt     *Runtime
		resize bool
	}{
		"plan switch": {rt: start(eight, from, &switchOnce{at: 1, plan: to})},
		"resize":      {rt: start(four, from, nil), resize: true},
	} {
		j, err := c.rt.NewJob(3)
		if err != nil {
			t.Fatal(err)
		}
		for !j.Done() {
			if c.resize && j.Iteration() == 1 && j.res.PlanSwitches == 0 {
				if err := j.Resize(eight, to, "grow"); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res := j.Finish()
		if res.PlanSwitches != 1 {
			t.Fatalf("%s: %d plan switches, want 1", name, res.PlanSwitches)
		}
		if got := res.Iterations[1:]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: iterations after the change\n got %+v\nwant %+v", name, got, want)
		}
	}
}
