package trainer

import (
	"reflect"
	"sync"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
)

// TestBatchCacheSharesEachBuild pins the batch cache's contract: K
// runtimes of one class build each (iteration, DP width) once between
// them, whether they run in turn or race, and every one of them returns
// the Result of a private run. A
// lone class member and a runtime with a scenario build nothing, and a
// lease resize onto another DP width reads entries of its own. Not
// skipped under -short, so the race gate runs the concurrent case.
func TestBatchCacheSharesEachBuild(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 8, 32, model.FullTraining)
	small := spec
	small.Cluster = cluster.Production(4)
	from, err := orchestrator.PlanDistTrain(small)
	if err != nil {
		t.Fatal(err)
	}
	to, err := orchestrator.PlanMegatron(spec)
	if err != nil {
		t.Fatal(err)
	}
	if from.Modules[model.Backbone].Config.DP == to.Modules[model.Backbone].Config.DP {
		t.Fatal("fixture: DP does not change across the resize")
	}
	shift, err := scenario.Parse("workload-shift:iters=1-2,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	four, eight := cluster.NewLease(0, 1, 2, 3), cluster.NewLease(0, 1, 2, 3, 4, 5, 6, 7)

	const iters = 3
	start := func(t *testing.T, c *BatchCache, sc scenario.Scenario) *Runtime {
		t.Helper()
		cfg := DistTrainConfig(spec, from, corpus)
		l := four
		cfg.Lease = &l
		cfg.GradientDim = 4
		cfg.Scenario = sc
		cfg.Batches = c
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	// run drives a runtime's job to the end, growing its lease to eight
	// nodes (and the plan to another DP width) before iteration 1 when
	// grow is set.
	run := func(rt *Runtime, grow bool) (*Result, error) {
		j, err := rt.NewJob(iters)
		if err != nil {
			return nil, err
		}
		for !j.Done() {
			if grow && j.Iteration() == 1 && j.res.PlanSwitches == 0 {
				if err := j.Resize(eight, to, "grow"); err != nil {
					return nil, err
				}
			}
			if err := j.Step(); err != nil {
				return nil, err
			}
		}
		return j.Finish(), nil
	}
	mustRun := func(rt *Runtime, grow bool) *Result {
		t.Helper()
		res, err := run(rt, grow)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := mustRun(start(t, nil, nil), false)
	wantShift := mustRun(start(t, nil, shift), false)
	wantGrow := mustRun(start(t, nil, nil), true)
	check := func(name string, got, want *Result) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged from its private run:\ngot  %+v\nwant %+v", name, got, want)
		}
	}

	t.Run("in turn", func(t *testing.T) {
		var c BatchCache
		const k = 3
		rts := make([]*Runtime, k)
		for i := range rts {
			rts[i] = start(t, &c, nil)
		}
		for _, rt := range rts {
			check("runtime", mustRun(rt, false), want)
		}
		if c.builds.Load() != iters {
			t.Errorf("%d runtimes in turn built %d batches for %d iterations", k, c.builds.Load(), iters)
		}
		for _, rt := range rts {
			rt.Close()
		}
		if len(c.live) != 0 {
			t.Errorf("closed runtimes still live: %v", c.live)
		}
	})

	t.Run("at once", func(t *testing.T) {
		var c BatchCache
		const k = 4
		rts := make([]*Runtime, k)
		for i := range rts {
			rts[i] = start(t, &c, nil)
		}
		got := make([]*Result, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for i, rt := range rts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(rt, false)
			}()
		}
		wg.Wait()
		for i := range rts {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			check("concurrent runtime", got[i], want)
		}
		if c.builds.Load() != iters {
			t.Errorf("%d concurrent runtimes built %d batches for %d iterations", k, c.builds.Load(), iters)
		}
	})

	t.Run("private", func(t *testing.T) {
		// The scenario runtime never joins, so the other is its class's
		// lone member: both prepare privately.
		var c BatchCache
		lone, shifted := start(t, &c, nil), start(t, &c, shift)
		check("lone runtime", mustRun(lone, false), want)
		check("scenario runtime", mustRun(shifted, false), wantShift)
		if c.builds.Load() != 0 {
			t.Errorf("private runtimes built %d shared batches", c.builds.Load())
		}
	})

	t.Run("resize", func(t *testing.T) {
		// The grown runtime builds iteration 0 at the old width, 1 at
		// both (its discarded prefetch ran first) and 2 at the new one;
		// the other then builds only iteration 2 at the old width.
		var c BatchCache
		grown, kept := start(t, &c, nil), start(t, &c, nil)
		check("resized runtime", mustRun(grown, true), wantGrow)
		check("unresized runtime", mustRun(kept, false), want)
		if c.builds.Load() != 5 {
			t.Errorf("resize over two DP widths built %d batches, want 5", c.builds.Load())
		}
	})
}

// TestBatchCacheEntriesAndGenerations pins the cache's bookkeeping: no
// entries while a class has one live runtime, one build per key (a
// second request reads the first build), and entries rotating out by
// samples held: the newest key survives a stream that drops the oldest.
func TestBatchCacheEntriesAndGenerations(t *testing.T) {
	var c BatchCache
	class := batchClass{batch: 1000}
	key := func(i int) batchKey { return batchKey{batchClass: class, first: int64(i) * 1000} }
	c.addLive(class, 1)
	if c.sharing(class) != nil {
		t.Fatal("a lone runtime's class shares entries")
	}
	c.addLive(class, 1)
	entries := c.sharing(class)
	builds := 0
	get := func(i int) preparedBatch {
		return entries.Get(key(i), class.batch, func() preparedBatch {
			builds++
			return preparedBatch{iter: i}
		})
	}
	get(0)
	if get(0); builds != 1 {
		t.Error("a second request for one key built it again")
	}
	const n = 10
	for i := 1; i < n; i++ {
		get(i)
	}
	if get(n - 1); builds != n {
		t.Error("newest entry lost")
	}
	if get(0); builds != n+1 {
		t.Errorf("the oldest entry survived %d samples put after it, two generations of %d", (n-1)*class.batch, batchGeneration)
	}
	c.addLive(class, -2)
	if len(c.live) != 0 || c.sharing(class) != nil {
		t.Errorf("live classes after every runtime left: %v", c.live)
	}
}
