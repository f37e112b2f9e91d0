package controller

import (
	"reflect"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/trainer"
)

// buildSpec wires a calibrated orchestration spec at the §7.2 ablation
// scale, mirroring the trainer package's test helper.
func buildSpec(t *testing.T, nodes, bs int) (orchestrator.Spec, *data.Corpus) {
	t.Helper()
	cl := cluster.Production(nodes)
	m := model.MLLM9B()
	opts := profiler.DefaultOptions(cl, m)
	p, err := profiler.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		t.Fatal(err)
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}, corpus
}

func planFor(t *testing.T, spec orchestrator.Spec) *orchestrator.Plan {
	t.Helper()
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestConfigValidate(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 16)
	plan := planFor(t, spec)
	good := Config{Train: trainer.DistTrainConfig(spec, plan, corpus)}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Train.Plan = nil },
		func(c *Config) { c.Threshold = -1 },
		func(c *Config) { c.Window = -1 },
		func(c *Config) { c.Train.Spec.Profiler = nil },
	} {
		bad := good
		mutate(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}
}

// TestObserveDedupesRewinds: failure-recovery re-deliveries (iter <=
// last observed) must not re-enter the window, or drift would be
// double counted across rewinds.
func TestObserveDedupesRewinds(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 16)
	plan := planFor(t, spec)
	c, err := New(Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := corpus.AppendBatch(nil, 0, 4)
	obs := func(iter int) trainer.Observation {
		return trainer.Observation{Iter: iter, Batch: batch}
	}
	c.Observe(obs(0))
	c.Observe(obs(1))
	c.Observe(obs(1)) // rewind re-delivery
	c.Observe(obs(0)) // rewind re-delivery
	if got := len(c.window); got != 2 {
		t.Errorf("window holds %d records after dedupe, want 2", got)
	}
	if got := len(c.Reports()); got != 1 {
		t.Errorf("%d drift reports, want 1 (first full window only)", got)
	}
}

// TestNoTriggerBelowThreshold: a steady run scores drift near zero and
// never launches a search.
func TestNoTriggerBelowThreshold(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 16)
	plan := planFor(t, spec)
	c, err := New(Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Observe(trainer.Observation{Iter: i, Batch: corpus.GlobalBatch(int64(i), 16)})
		if sw := c.Pending(i + 1); sw != nil {
			t.Fatalf("steady run produced a switch at %d: %+v", i+1, sw)
		}
	}
	if triggered(c) != 0 {
		t.Errorf("steady run triggered %d searches", triggered(c))
	}
	for _, rep := range c.Reports() {
		if rep.Score > 0.2 {
			t.Errorf("steady drift score %.3f implausibly high: %+v", rep.Score, rep)
		}
		if rep.Triggered {
			t.Errorf("steady report marked triggered: %+v", rep)
		}
	}
}

// TestMeanShapeMirrorsCalibration: the drift estimator and the
// recalibration path must agree on what "mean shape" means, or the
// controller would plan for a different distribution than it measured
// — both sides share profiler.MeanShapeOf.
func TestMeanShapeMirrorsCalibration(t *testing.T) {
	_, corpus := buildSpec(t, 4, 16)
	shapes := make([]model.SampleShape, 64)
	for i := range shapes {
		shapes[i] = corpus.Sample(int64(i)).Shape()
	}
	p, err := profiler.New(profiler.DefaultOptions(cluster.Production(4), model.MLLM9B()))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CalibrateShapes(shapes); err != nil {
		t.Fatal(err)
	}
	if got, want := profiler.MeanShapeOf(shapes), p.MeanShape(); !reflect.DeepEqual(got, want) {
		t.Errorf("MeanShapeOf %+v disagrees with CalibrateShapes %+v", got, want)
	}
	// Degenerate: text-only samples still yield a usable shape.
	deg := profiler.MeanShapeOf([]model.SampleShape{{}, {}})
	if len(deg.ImageTokens) == 0 {
		t.Error("text-only mean shape lost its image slot")
	}
}

// TestInfeasibleSwitchRejected: the runtime must drop (not abort on) a
// controller switch whose plan cannot execute under the spec — the
// seam is public and a controller may hand back anything.
func TestInfeasibleSwitchRejected(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 16)
	plan := planFor(t, spec)
	want := runConfig(t, trainer.DistTrainConfig(spec, plan, corpus), 4)

	bad := *plan
	bad.Modules[model.Backbone].Config.DP = 7 // 7 does not divide BS=16
	cfg := trainer.DistTrainConfig(spec, plan, corpus)
	cfg.Controller = &fixedSwitch{applyAt: 2, plan: &bad}
	got := runConfig(t, cfg, 4)
	if got.PlanSwitches != 0 {
		t.Fatalf("infeasible plan was applied: %+v", got.Replans)
	}
	got.GradientSum, want.GradientSum = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rejected switch still changed the run:\ngot  %+v\nwant %+v", got, want)
	}
}

// fixedSwitch is a minimal TrainController that proposes one plan at a
// fixed boundary.
type fixedSwitch struct {
	applyAt int
	plan    *orchestrator.Plan
}

func (f *fixedSwitch) Observe(trainer.Observation) {}
func (f *fixedSwitch) Pending(iter int) *trainer.PlanSwitch {
	if iter != f.applyAt {
		return nil
	}
	return &trainer.PlanSwitch{Plan: f.plan, Reason: "test"}
}

// TestLeaseChangedResetsBaseline: a fleet lease resize moves the
// orchestration problem under the controller's feet. LeaseChanged must
// adopt the new spec and plan as the incumbent, drop the observation
// window (its drift was scored against the old geometry), and abandon
// any scheduled search boundary so a stale plan never applies.
func TestLeaseChangedResetsBaseline(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 16)
	plan := planFor(t, spec)
	c, err := New(Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := corpus.AppendBatch(nil, 0, 4)
	c.Observe(trainer.Observation{Iter: 0, Batch: batch})
	c.Observe(trainer.Observation{Iter: 1, Batch: batch})
	// Fake an in-flight search scheduled for iter 3.
	ch := make(chan *searchOutcome, 1)
	ch <- nil
	c.mu.Lock()
	c.pending = &pendingSearch{applyAt: 3, ch: ch}
	c.mu.Unlock()

	smaller := spec
	smaller.Cluster.Nodes = 2
	newPlan := planFor(t, smaller)
	c.LeaseChanged(2, smaller, newPlan)

	if got := c.CurrentPlan(); got != newPlan {
		t.Error("incumbent plan did not follow the lease change")
	}
	c.mu.Lock()
	window, pending, train := len(c.window), c.pending, c.cfg.Train
	c.mu.Unlock()
	if window != 0 {
		t.Errorf("window holds %d records after a lease change, want 0", window)
	}
	if pending != nil {
		t.Error("stale search boundary survived the lease change")
	}
	if train.Spec.Cluster.Nodes != 2 || train.Plan != newPlan {
		t.Errorf("controller's re-planning problem not rebased: %d nodes", train.Spec.Cluster.Nodes)
	}
	if sw := c.Pending(3); sw != nil {
		t.Error("abandoned boundary still delivered a switch")
	}
}

// triggered counts the drift reports that launched a search.
func triggered(c *Controller) int {
	n := 0
	for _, rep := range c.Reports() {
		if rep.Triggered {
			n++
		}
	}
	return n
}
