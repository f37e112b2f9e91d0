package controller

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// budgeted builds a controller whose switch budget is n plan switches
// instead of maxReplans.
func budgeted(t *testing.T, cfg Config, n int) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.maxReplans = n
	return c
}

func runConfig(t *testing.T, cfg trainer.Config, iters int) *trainer.Result {
	t.Helper()
	rt, err := trainer.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveReplanEndToEnd is the acceptance path: a workload-shift
// scenario drifts the sample-cost distribution mid-run; the controller
// detects it, re-runs the §4.3 search concurrently with training, and
// switches plans at an iteration boundary. The adaptive run must beat
// the controller-free run on mean iteration time while producing
// exactly the same gradient sums — plans permute placement and order,
// never the commutative accumulation.
func TestAdaptiveReplanEndToEnd(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	plan := planFor(t, spec)
	sc, err := scenario.Parse("workload-shift:iters=2-13,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 14

	base := trainer.DistTrainConfig(spec, plan, corpus)
	base.GradientDim = 8
	base.Scenario = sc

	off := runConfig(t, base, iters)

	ctrl := budgeted(t, Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Threshold: 0.5, window: 2}, 1)
	adaptive := base
	adaptive.Controller = ctrl
	on := runConfig(t, adaptive, iters)

	if on.PlanSwitches < 1 {
		t.Fatalf("controller applied %d plan switches, want >= 1 (triggers: %d, reports: %+v)",
			on.PlanSwitches, triggered(ctrl), ctrl.Reports())
	}
	if len(on.Replans) != on.PlanSwitches {
		t.Errorf("Replans records %d switches, counter says %d", len(on.Replans), on.PlanSwitches)
	}
	for _, rp := range on.Replans {
		if rp.Downtime <= 0 {
			t.Errorf("plan switch at %d was free: reconfiguration must be costed", rp.AppliedAt)
		}
	}
	if on.DowntimeSeconds <= 0 {
		t.Error("reconfiguration downtime not accounted in DowntimeSeconds")
	}
	if on.MeanIterTime >= off.MeanIterTime {
		t.Errorf("adaptive run did not beat the static plan: %.4fs vs %.4fs (replans: %+v)",
			on.MeanIterTime, off.MeanIterTime, on.Replans)
	}
	if !reflect.DeepEqual(on.GradientSum, off.GradientSum) {
		t.Errorf("re-planned run changed the gradient sums:\non  %v\noff %v", on.GradientSum, off.GradientSum)
	}
}

// TestControllerSteadyByteIdentical: with drift below threshold the
// controller must be invisible — the Result is byte-identical to a
// controller-free run.
func TestControllerSteadyByteIdentical(t *testing.T) {
	spec, corpus := buildSpec(t, 12, 96)
	plan := planFor(t, spec)

	mk := func() trainer.Config {
		cfg := trainer.DistTrainConfig(spec, plan, corpus)
		cfg.GradientDim = 8
		return cfg
	}
	want := runConfig(t, mk(), 6)

	ctrl, err := New(Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Threshold: 0.5, window: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	cfg.Controller = ctrl
	got := runConfig(t, cfg, 6)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("steady controller run diverged from controller-free run:\ngot  %+v\nwant %+v", got, want)
	}
	if triggered(ctrl) != 0 {
		t.Errorf("steady run triggered %d searches", triggered(ctrl))
	}
}

// TestReconfigurationPreservesGradients is the reconfiguration
// semantics property test: for random scenario factors, windows and
// seeds, a mid-run re-planned run must produce gradient sums identical
// to the uninterrupted reference — the §5 commutativity argument
// extended to plan switches (the CI race gate runs this under -race).
func TestReconfigurationPreservesGradients(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	plan := planFor(t, spec)

	cases := 4
	if testing.Short() {
		cases = 2
	}
	rng := rand.New(rand.NewSource(41))
	for ci := 0; ci < cases; ci++ {
		start := 1 + rng.Intn(3)
		factor := 2 + rng.Float64()*2
		iters := 8 + rng.Intn(4)
		dim := 4 + rng.Intn(8)
		sc, err := scenario.Parse(fmt.Sprintf("workload-shift:iters=%d-%d,factor=%.2f", start, iters, factor))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("shift@%d x%.2f iters=%d dim=%d", start, factor, iters, dim)
		t.Run(name, func(t *testing.T) {
			mk := func() trainer.Config {
				cfg := trainer.DistTrainConfig(spec, plan, corpus)
				cfg.Scenario = sc
				cfg.GradientDim = dim
				return cfg
			}
			ref := runConfig(t, mk(), iters) // uninterrupted reference
			if ref.GradientSum == nil {
				t.Fatal("reference run produced no gradient sums")
			}
			ctrl := budgeted(t, Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Threshold: 0.4, window: 2}, 2)
			ctrl.cooldown = 3
			cfg := mk()
			cfg.Controller = ctrl
			got := runConfig(t, cfg, iters)
			if got.PlanSwitches < 1 {
				t.Fatalf("no plan switch happened, property not exercised (reports %+v)", ctrl.Reports())
			}
			if !reflect.DeepEqual(got.GradientSum, ref.GradientSum) {
				t.Errorf("gradient sums diverged after %d plan switches:\ngot  %v\nwant %v",
					got.PlanSwitches, got.GradientSum, ref.GradientSum)
			}
		})
	}
}

// TestGoldenTraceDeterminism pins trace determinism: two runs with the
// same seed and scenario script emit byte-identical
// Chrome-trace JSON — including the controller's new replan /
// reconfigure events. The format carries only simulated timestamps (no
// wall-clock fields), so no normalisation is needed; byte equality is
// the whole check.
func TestGoldenTraceDeterminism(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	plan := planFor(t, spec)
	const spec2 = "workload-shift:iters=2-9,factor=3; straggler:iters=1-2,rank=0,factor=2"
	sc, err := scenario.Parse(spec2)
	if err != nil {
		t.Fatal(err)
	}

	run := func() []byte {
		ctrl := budgeted(t, Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Threshold: 0.5, window: 2}, 1)
		cfg := trainer.DistTrainConfig(spec, plan, corpus)
		cfg.Scenario = sc
		cfg.Controller = ctrl
		cfg.GradientDim = 4
		tr := metrics.NewTrace()
		cfg.Trace = tr
		res := runConfig(t, cfg, 10)
		if res.PlanSwitches < 1 {
			t.Fatal("golden trace run did not exercise a plan switch")
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("trace JSON not byte-identical across identical runs (%d vs %d bytes)", len(a), len(b))
	}
	// And a controller-free perturbed run is deterministic too.
	runPlain := func() []byte {
		cfg := trainer.DistTrainConfig(spec, plan, corpus)
		cfg.Scenario = sc
		tr := metrics.NewTrace()
		cfg.Trace = tr
		runConfig(t, cfg, 6)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runPlain(), runPlain()) {
		t.Error("controller-free trace JSON not byte-identical across identical runs")
	}
}

// TestReplanAgainstEvaluateEstimate sanity-checks that the applied
// plan is genuinely different placement, not a re-stamp of the
// incumbent.
func TestReplanAgainstEvaluateEstimate(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	plan := planFor(t, spec)
	sc, err := scenario.Parse("workload-shift:iters=1-9,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := budgeted(t, Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Threshold: 0.5, window: 2}, 1)
	cfg := trainer.DistTrainConfig(spec, plan, corpus)
	cfg.Scenario = sc
	cfg.Controller = ctrl
	res := runConfig(t, cfg, 10)
	if res.PlanSwitches < 1 {
		t.Fatalf("no switch: %+v", ctrl.Reports())
	}
	next := ctrl.current
	if samePlacement(plan, next) {
		t.Error("switch applied but placement unchanged")
	}
	if next.TotalGPUs() > spec.Cluster.TotalGPUs() {
		t.Errorf("re-planned fleet %d exceeds the cluster %d", next.TotalGPUs(), spec.Cluster.TotalGPUs())
	}
	// Under an image-heavier distribution the modality modules should
	// not shrink to fewer GPUs than the incumbent gave them.
	if got, was := next.Modules[model.Encoder].GPUs(), plan.Modules[model.Encoder].GPUs(); got < was {
		t.Errorf("3x image shift shrank the encoder allocation %d -> %d", was, got)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden trace digest")

// TestGoldenTraceBytes pins the written trace bytes of one standalone
// run that exercises every trainer-side event shape: VPP 2 pipeline
// lanes, a node-failure instant with its recovery span, and a
// controller replan with its reconfigure span. The committed digest
// was written by the sharded per-lane recorder that encoded
// []TraceEvent through encoding/json; a recorder or encoder change has
// to reproduce it byte for byte.
func TestGoldenTraceBytes(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	spec.VPP = 2
	plan := planFor(t, spec)
	if vpp := plan.Modules[model.Backbone].Config.VPP; vpp < 2 {
		t.Fatalf("backbone VPP = %d, want > 1", vpp)
	}
	sc, err := scenario.Parse("workload-shift:iters=1-11,factor=4; failure:iter=8,downtime=2")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := budgeted(t, Config{Train: trainer.DistTrainConfig(spec, plan, corpus), Threshold: 0.5, window: 2}, 1)
	cfg := trainer.DistTrainConfig(spec, plan, corpus)
	cfg.Scenario = sc
	cfg.Controller = ctrl
	cfg.CheckpointEvery = 2
	tr := metrics.NewTrace()
	cfg.Trace = tr
	res := runConfig(t, cfg, 12)
	if res.PlanSwitches < 1 || res.Failures != 1 {
		t.Fatalf("fixture fired %d plan switches and %d failures, want >= 1 and 1", res.PlanSwitches, res.Failures)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{`"replan"`, `"reconfigure"`, `"node-failure"`, `"recovery"`} {
		if !bytes.Contains(buf.Bytes(), []byte(needle)) {
			t.Errorf("trace has no %s event", needle)
		}
	}
	got := fmt.Sprintf("events=%d bytes=%d sha256=%x\n", tr.Len(), buf.Len(), sha256.Sum256(buf.Bytes()))
	const path = "testdata/trainer_trace_digest.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("trace digest diverged from the golden:\ngot  %swant %s", got, want)
	}
}
