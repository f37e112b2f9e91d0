package trainer

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/metrics"
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

// TestIterationAllocBudget pins the iteration's allocation count: 0
// is recorded per sequential fleet-steady iteration, where 75 were
// before every buffer of the assignment, Algorithm 2 and the simulator
// outlived the call, 2 before the corpus batch moved into the runtime's
// prepBufs and 1 while the ranks ran through a fan-out closure; none is
// per priced sample. The budget is 0. Under the race detector
// sync.Pool drops a quarter of its Puts, so a rank or the front-end
// regrows a whole scratch now and then (and instrumented builds pay
// two allocations per slices.Grow): 44-51 per iteration were measured
// as means of 400 runs, and the bound kept there, 62, is the one an
// allocation per sample (+32) would still break.
func TestIterationAllocBudget(t *testing.T) {
	rt := steadyRuntime(t)
	runs, budget, recorded := 100, 0.0, "0"
	if raceEnabled {
		runs, budget, recorded = 400, 62, "44-51 under -race"
	}
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := rt.RunIterationSequential(1); err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("one iteration allocated %v times, recorded %s, budget %v", got, recorded, budget)
	}
}

// TestNewAllocBudget pins what admitting a fleet tenant onto an already
// resolved class allocates: trainer.New and NewJob for a 2-node lease
// whose class another runtime resolved on the BatchCache. The runtime,
// its Result and the Result's iteration slice are the recorded 3,
// where 4 were while the run loop's state was a Job apart from its
// runtime, and 6 while every runtime resolved its own plan (its link
// vector) and copied its lease out of line. The budget is the recorded
// count.
func TestNewAllocBudget(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 8, 32, model.FullTraining)
	lease := cluster.NewLease(0, 1)
	plan, err := orchestrator.PlanDistTrain(spec.ForLease(spec.Cluster, lease, false))
	if err != nil {
		t.Fatal(err)
	}
	var c BatchCache
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.Lease, cfg.Batches = &lease, &c
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	const recorded = 3
	if got := testing.AllocsPerRun(100, func() {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rt.cls != first.cls {
			t.Fatal("a tenant of a resolved class resolved another")
		}
		if _, err := rt.NewJob(4); err != nil {
			t.Fatal(err)
		}
		rt.Close()
	}); got > recorded {
		t.Errorf("New + NewJob on a resolved class allocated %v times, recorded %d", got, recorded)
	}
}

// keepBatches is a controller that keeps every batch it is handed.
type keepBatches struct{ batches [][]data.Sample }

func (k *keepBatches) Observe(o Observation)   { k.batches = append(k.batches, o.Batch) }
func (k *keepBatches) Pending(int) *PlanSwitch { return nil }

// TestObservedBatchesOutliveTheIteration guards the batch buffer the
// alloc budget relies on: a corpus batch lives in one of the runtime's
// two prepBufs and is refilled two iterations later, so a controller
// that keeps every Observation.Batch must have been handed copies —
// each must still hold its own iteration's samples after the run.
func TestObservedBatchesOutliveTheIteration(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 2, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	ctl := &keepBatches{}
	cfg.Controller = ctl
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const iters = 6
	if _, err := rt.Run(iters); err != nil {
		t.Fatal(err)
	}
	if len(ctl.batches) != iters {
		t.Fatalf("controller observed %d batches, want %d", len(ctl.batches), iters)
	}
	for i, b := range ctl.batches {
		if want := corpus.GlobalBatch(int64(i), spec.GlobalBatch); !reflect.DeepEqual(b, want) {
			t.Errorf("iteration %d's observed batch no longer holds its samples (first index %d, want %d)",
				i, b[0].Index, want[0].Index)
		}
	}
}

// TestTracedIterationAllocBudget pins what recording an iteration adds:
// the traced iteration's fresh outcome slots, each rank's exact-size
// span slice and the span block's replay closure — 6 allocations and
// 3,840 bytes per sequential fleet-steady iteration (its 4 DP ranks),
// where 6 and 8,944 were while each rank copied 40-byte ops out of the
// simulator. The trace's own log grows geometrically, so it amortises
// to next to nothing. The budgets are the recorded counts, the bytes
// with 10% slack, measured with the collector off so no GC empties the
// scratch pools; the race detector's pool drops make them unpinnable
// there.
func TestTracedIterationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := steadyRuntime(t)
	rt.trace = metrics.NewTrace()
	step := func() {
		if _, err := rt.RunIterationSequential(1); err != nil {
			t.Fatal(err)
		}
	}
	const runs, recorded, recordedBytes = 100, 6, 3840
	if got := testing.AllocsPerRun(runs, step); got > recorded {
		t.Errorf("one traced iteration allocated %v times, recorded %d", got, recorded)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > recordedBytes*11/10 {
		t.Errorf("one traced iteration allocated %d bytes, recorded %d", got, recordedBytes)
	}
}
