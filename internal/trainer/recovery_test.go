package trainer

import (
	"testing"

	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
)

// TestFailureRecovery exercises the §6 fault-tolerance path: a training
// run crashes, and a fresh runtime resumes from its latest checkpoint,
// losing at most one checkpoint interval of work.
func TestFailureRecovery(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}

	// First run: train 7 iterations with a checkpoint every 2, then
	// "crash" (the runtime simply goes away; its checkpoint survives).
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.CheckpointEvery = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(7); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	// Recovery: the last completed save is iteration 6.
	step := rt.ckptStep
	if step != 6 {
		t.Fatalf("recovered step %d, want 6 (iterations 2,4,6 checkpointed)", step)
	}

	// Resume: a fresh runtime continues from the recovered step; the
	// corpus is deterministic, so iteration step+1 sees exactly the
	// batch it would have seen without the crash.
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	resumed, err := rt2.RunIterationSequential(step + 1)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := Run(cfg, step+2)
	if err != nil {
		t.Fatal(err)
	}
	direct := uninterrupted.Iterations[step+1]
	if resumed.FLOPs != direct.FLOPs || resumed.Breakdown != direct.Breakdown {
		t.Errorf("resumed iteration %d diverges from the uninterrupted run:\nresumed %+v\ndirect  %+v",
			step+1, resumed, direct)
	}
}

// TestCheckpointBackPressure verifies the exposed-stall accounting:
// checkpoints that write faster than the interval cost nothing; a write
// that outlasts the training cadence surfaces as CheckpointStall.
func TestCheckpointBackPressure(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.CheckpointEvery = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(5)
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if it.Breakdown.CheckpointStall > 0 {
			t.Errorf("a checkpoint every 2 iterations should hide behind training, iter %d stalled %.3fs",
				it.Index, it.Breakdown.CheckpointStall)
		}
	}

	// A 4-sample batch checkpointed every iteration trains for half a
	// second between saves, under half the ~1.2s a full-state write
	// takes on 4 nodes.
	spec, corpus = buildSpec(t, model.MLLM9B(), 4, 4, model.FullTraining)
	if plan, err = orchestrator.PlanDistTrain(spec); err != nil {
		t.Fatal(err)
	}
	cfg = DistTrainConfig(spec, plan, corpus)
	cfg.CheckpointEvery = 1
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := rt2.Run(5)
	rt2.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res2.Iterations[1:] {
		if it.Breakdown.CheckpointStall <= 0 {
			t.Errorf("iter %d: a checkpoint write longer than the iteration should surface back-pressure", it.Index)
		}
	}
}

// TestCheckpointsSavedIsExact pins the save count of a run that
// checkpoints every iteration: one save per iteration after the
// first, whatever the scheduler does. The count once came from a
// writer goroutine that could supersede a queued save, so one core
// lost saves by the dozen.
func TestCheckpointsSavedIsExact(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 4, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.CheckpointEvery = 1
	const n = 200
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsSaved != n-1 || rt.ckptStep != n-1 {
		t.Errorf("%d iterations checkpointed every iteration: %d saves, newest step %d; want %d saves, newest %d",
			n, res.CheckpointsSaved, rt.ckptStep, n-1, n-1)
	}
}
