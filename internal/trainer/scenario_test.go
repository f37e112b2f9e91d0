package trainer

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
)

func scenarioConfig(t *testing.T, nodes, batch int) (Config, *orchestrator.Plan) {
	t.Helper()
	spec, corpus := buildSpec(t, model.MLLM9B(), nodes, batch, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	return DistTrainConfig(spec, plan, corpus), plan
}

// TestStragglerScenarioSlowsIteration: a slowed rank stretches the
// pipeline and widens the DP straggler spread, exactly on the
// scheduled iterations.
func TestStragglerScenarioSlowsIteration(t *testing.T) {
	cfg, _ := scenarioConfig(t, 12, 96)
	sc, err := scenario.Parse("straggler:iter=1,rank=0,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	steady, slow := res.Iterations[0], res.Iterations[1]
	if !slow.Perturbed || steady.Perturbed || res.Iterations[2].Perturbed {
		t.Errorf("perturbation flags wrong: %v %v %v",
			steady.Perturbed, slow.Perturbed, res.Iterations[2].Perturbed)
	}
	if slow.Breakdown.Pipeline <= steady.Breakdown.Pipeline*1.5 {
		t.Errorf("3x straggler barely moved the pipeline: %.4fs vs steady %.4fs",
			slow.Breakdown.Pipeline, steady.Breakdown.Pipeline)
	}
	if slow.StragglerSpread <= steady.StragglerSpread {
		t.Errorf("rank-local straggler should widen the DP spread: %.3f vs %.3f",
			slow.StragglerSpread, steady.StragglerSpread)
	}
}

// TestCongestionAndPreprocessScenarios: link congestion stretches the
// pipeline (exposed P2P grows), preprocessing degradation stretches
// the data stall, and both restrict themselves to their windows.
func TestCongestionAndPreprocessScenarios(t *testing.T) {
	cfg, _ := scenarioConfig(t, 12, 96)
	sc, err := scenario.Parse("congestion:iter=1,factor=10; preprocess:iter=2,factor=8")
	if err != nil {
		t.Fatal(err)
	}
	steadyRt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer steadyRt.Close()
	steady, err := steadyRt.Run(4)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Scenario = sc
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	it, base := res.Iterations, steady.Iterations
	if it[1].Breakdown.Pipeline <= base[1].Breakdown.Pipeline {
		t.Errorf("10x congestion did not stretch the pipeline: %.4fs vs steady %.4fs",
			it[1].Breakdown.Pipeline, base[1].Breakdown.Pipeline)
	}
	if got, want := it[2].Breakdown.PreprocessStall, base[2].Breakdown.PreprocessStall; got <= want*4 {
		t.Errorf("8x preprocess degradation: stall %.5fs vs steady %.5fs", got, want)
	}
	if it[3].Breakdown.Pipeline != base[3].Breakdown.Pipeline {
		t.Errorf("window leaked into iteration 3: %.6fs vs steady %.6fs",
			it[3].Breakdown.Pipeline, base[3].Breakdown.Pipeline)
	}
}

// TestNodeFailureRecoveryScenario is the acceptance path: a seeded
// node failure interrupts the run, the runtime restores the latest
// checkpoint, re-executes the lost iterations, and completes the
// full schedule.
func TestNodeFailureRecoveryScenario(t *testing.T) {
	cfg, _ := scenarioConfig(t, 4, 16)
	cfg.CheckpointEvery = 2
	sc, err := scenario.Parse("failure:iter=6,downtime=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const n = 7
	res, err := rt.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	if res.Failures != 1 || len(res.Recoveries) != 1 {
		t.Fatalf("failures = %d, recoveries = %d, want 1", res.Failures, len(res.Recoveries))
	}
	rec := res.Recoveries[0]
	// The failure lands at iteration 6; checkpoints exist for steps 2
	// and 4, so the runtime resumes from 5 and re-executes iteration 5.
	if rec.FailedAt != 6 || rec.ResumedFrom != 5 {
		t.Errorf("recovery = %+v, want failure at 6 resuming from 5", rec)
	}
	if res.ReExecutedIterations != 1 {
		t.Errorf("re-executed %d iterations, want 1", res.ReExecutedIterations)
	}
	if rec.Downtime <= 5 {
		t.Errorf("downtime %.3fs should exceed the 5s detection delay (restore read)", rec.Downtime)
	}
	if res.DowntimeSeconds != rec.Downtime {
		t.Errorf("downtime total %.3f != recovery %.3f", res.DowntimeSeconds, rec.Downtime)
	}

	// The execution log shows the rewind: 0..5, then 5 again, then 6.
	wantIdx := []int{0, 1, 2, 3, 4, 5, 5, 6}
	if len(res.Iterations) != len(wantIdx) {
		t.Fatalf("executed %d iterations, want %d", len(res.Iterations), len(wantIdx))
	}
	for j, it := range res.Iterations {
		if it.Index != wantIdx[j] {
			t.Fatalf("execution order %v at %d, want %v", it.Index, j, wantIdx)
		}
	}
	// Deterministic re-execution: the redone iteration matches its
	// first run exactly.
	if res.Iterations[5].FLOPs != res.Iterations[6].FLOPs ||
		res.Iterations[5].Breakdown.Pipeline != res.Iterations[6].Breakdown.Pipeline {
		t.Error("re-executed iteration diverged from its original run")
	}

	// Recovery really came from the checkpoint: the latest at failure
	// time was step 4 — after completion step 6 is saved too.
	if rt.ckptStep != 6 {
		t.Errorf("latest checkpoint step = %d, want 6", rt.ckptStep)
	}
}

// TestNodeFailureWithoutCheckpointsRestartsFromZero: without
// checkpointing the whole prefix is lost and re-executed.
func TestNodeFailureWithoutCheckpointsRestartsFromZero(t *testing.T) {
	cfg, _ := scenarioConfig(t, 4, 16)
	sc, err := scenario.Parse("failure:iter=2,downtime=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.Recoveries[0].ResumedFrom != 0 || res.ReExecutedIterations != 2 {
		t.Errorf("restart-from-zero wrong: %+v", res.Recoveries)
	}
	if len(res.Iterations) != 6 { // 0,1 then 0,1,2,3
		t.Errorf("executed %d iterations, want 6", len(res.Iterations))
	}
}

// TestOverlappingRewindsFireEachEventOnce pins the run loop's three
// high-water marks: two failures whose rewinds both restart from zero
// replay iterations 0..1 twice and 2 once more, with pool events
// sitting inside the replayed window. Every fire-once event must fire
// exactly once, and every iteration must count once towards the
// gradient and the useful-token rate, whichever pass executed it.
func TestOverlappingRewindsFireEachEventOnce(t *testing.T) {
	cfg, _ := scenarioConfig(t, 4, 16)
	cfg.GradientDim = 8
	const n = 5
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	ref, err := clean.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := scenario.Parse("failure:iter=2,downtime=1; failure:iter=3,downtime=1; " +
		"producer-fail:iter=1,producer=0; producer-join:iter=2,producer=0; producer-fail:iter=4,producer=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	cfg.Trace = metrics.NewTrace()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	var order []int
	for _, it := range res.Iterations {
		order = append(order, it.Index)
	}
	if want := []int{0, 1, 0, 1, 2, 0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
	if res.Failures != 2 || res.ReExecutedIterations != 2+3 {
		t.Errorf("failures = %d, re-executed = %d, want 2 and 5", res.Failures, res.ReExecutedIterations)
	}
	if !reflect.DeepEqual(res.GradientSum, ref.GradientSum) {
		t.Errorf("re-executed iterations leaked into the gradient:\n got %v\nwant %v", res.GradientSum, ref.GradientSum)
	}
	var wall float64
	for _, it := range res.Iterations {
		wall += it.Breakdown.Total()
	}
	wall += res.DowntimeSeconds
	if want := float64(n) * float64(cfg.Spec.GlobalBatch) * float64(cfg.Spec.Model.SeqLen) / wall; res.TokensPerSec != want {
		t.Errorf("tokens/s = %g, want %g (%d distinct iterations over the whole wall-clock)", res.TokensPerSec, want, n)
	}
	var js bytes.Buffer
	if err := cfg.Trace.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"node-failure": 2, "producer-fail": 2, "producer-join": 1} {
		if got := strings.Count(js.String(), `"name":"`+name+`"`); got != want {
			t.Errorf("trace holds %d %s instants, want %d", got, name, want)
		}
	}
}

// TestScenarioMatrix sweeps the scenario catalogue across runtime
// configurations, checking structural invariants. The full matrix is
// the slow path; -short (the CI race gate) trims it to one
// configuration per scenario.
func TestScenarioMatrix(t *testing.T) {
	specs := []string{
		"straggler:iters=1-2,rank=0,factor=2",
		"straggler:iters=0-1,stage=0,factor=3,from=0.01,until=0.05",
		"preprocess:iters=1-2,factor=5",
		"congestion:iters=0-2,factor=4",
		"failure:iter=2,downtime=2",
		"random-stragglers:seed=5,ranks=16,prob=0.5,max=2.5",
	}
	spec, corpus := buildSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"disttrain", DistTrainConfig(spec, plan, corpus)},
		{"megatron", MegatronConfig(spec, plan, corpus)},
	}
	if testing.Short() {
		variants = variants[:1]
	}
	for _, v := range variants {
		for _, sspec := range specs {
			t.Run(v.name+"/"+sspec, func(t *testing.T) {
				sc, err := scenario.Parse(sspec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := v.cfg
				cfg.Scenario = sc
				cfg.CheckpointEvery = 2
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := rt.Run(4)
				rt.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Iterations) < 4 {
					t.Fatalf("run under-delivered: %d iterations", len(res.Iterations))
				}
				if res.MeanIterTime <= 0 || res.TokensPerSec <= 0 {
					t.Error("degenerate aggregates under scenario")
				}
				for _, it := range res.Iterations {
					if it.Breakdown.Pipeline <= 0 {
						t.Error("iteration lost its pipeline time")
					}
				}
			})
		}
	}
}

// simulatedWall is what a finished job's clock must read: every
// executed iteration (re-executions included) plus charged downtime.
func simulatedWall(res *Result) float64 {
	wall := res.DowntimeSeconds
	for _, it := range res.Iterations {
		wall += it.Breakdown.Total()
	}
	return wall
}

// TestClockIndependentOfTrace: the simulated wall-clock cursor is a
// property of the run, not of its observer — it advances by iteration
// time and downtime alike whether or not a trace is attached.
func TestClockIndependentOfTrace(t *testing.T) {
	sc, err := scenario.Parse("failure:iter=4,downtime=5")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *metrics.Trace) (float64, *Result) {
		cfg, _ := scenarioConfig(t, 4, 16)
		cfg.CheckpointEvery = 2
		cfg.Scenario = sc
		cfg.Trace = tr
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		j, err := rt.NewJob(5)
		if err != nil {
			t.Fatal(err)
		}
		for !j.Done() {
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return j.clock, j.Finish()
	}
	plain, res := run(nil)
	traced, _ := run(metrics.NewTrace())
	if res.DowntimeSeconds <= 0 || len(res.Iterations) <= 5 {
		t.Fatalf("fixture charged %g s downtime over %d executed iterations: want a failure and a re-execution",
			res.DowntimeSeconds, len(res.Iterations))
	}
	if plain != traced {
		t.Errorf("clock reads %g untraced, %g traced", plain, traced)
	}
	if want := simulatedWall(res); math.Abs(plain-want) > 1e-9*want {
		t.Errorf("clock %g, iterations + downtime %g", plain, want)
	}
}
