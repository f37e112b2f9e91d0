package trainer

import (
	"testing"

	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
)

// steadyRuntime is one fleet-steady tenant: MLLM-9B on 2 nodes, global
// batch 32, M = 1, its DistTrain plan, every DistTrain technique on.
func steadyRuntime(tb testing.TB) *Runtime {
	tb.Helper()
	spec, corpus := buildSpec(tb, model.MLLM9B(), 2, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := New(DistTrainConfig(spec, plan, corpus))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

// BenchmarkTrainerIteration is the trainer step's layer benchmark: one
// RunIterationSequential at the fleet-steady geometry — fetch the
// (memoized) batch, Algorithm 1, price and reorder every microbatch,
// simulate each rank's 1F1B pipeline, reduce.
func BenchmarkTrainerIteration(b *testing.B) {
	rt := steadyRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.RunIterationSequential(i % 4); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIterationAllocBudget pins the iteration's allocation count: 75
// were recorded per sequential fleet-steady iteration (89 before the
// cost model was compiled and the reorder sorts lost their reflection
// swappers) — the assignment's per-rank slices, Algorithm 2's pools and
// maps, the simulator's timeline — and none per priced sample. The
// bound is 95: under the race detector sync.Pool drops the rank scratch
// at random, up to 5 allocations for each of the 4 ranks, while one
// allocation per sample would add 32.
func TestIterationAllocBudget(t *testing.T) {
	rt := steadyRuntime(t)
	if got := testing.AllocsPerRun(20, func() {
		if _, err := rt.RunIterationSequential(1); err != nil {
			t.Fatal(err)
		}
	}); got > 95 {
		t.Errorf("one iteration allocated %v times, recorded 75, budget 95", got)
	}
}
