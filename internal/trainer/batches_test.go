package trainer

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/metrics"
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
			if rt.cls != rts[0].cls {
				t.Error("runtimes of one plan and template resolved two classes")
			}
			rt.Close()
		}
		if n := rts[0].cls.live.Load(); n != 0 {
			t.Errorf("%d closed runtimes still live", n)
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
		// The grown runtime builds iteration 0 at the old width and 1
		// and 2 at the new one; the other then builds 1 and 2 at the old
		// width.
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
// sharing while a class has one live runtime, one build per key (a
// second request reads the first build), and entries rotating out by
// samples held: the newest key survives a stream that drops the oldest.
func TestBatchCacheEntriesAndGenerations(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	var c BatchCache
	cls := c.class(classKey{plan: plan, batchClass: batchClass{corpus: corpus, prof: spec.Profiler, batch: 32}}, &spec)
	class := batchClass{batch: 1000}
	key := func(i int) batchKey { return batchKey{batchClass: class, first: int64(i) * 1000} }
	cls.live.Add(1)
	if cls.shares() {
		t.Fatal("a lone runtime's class shares entries")
	}
	cls.live.Add(1)
	if !cls.shares() {
		t.Fatal("two live runtimes' class shares no entries")
	}
	entries := &c.entries
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
	cls.live.Add(-2)
	if n := cls.live.Load(); n != 0 || cls.shares() {
		t.Errorf("%d live runtimes after every runtime left", n)
	}
}

// TestBatchCacheSharesRankOutcomes pins the run half of the cache: K
// runtimes reading one batch under one plan simulate each rank once
// between them, whether they run in turn or race; a plan that differs
// only in what runRank reads (the backbone's VPP, the module prices)
// and a traced runtime beside an untraced one each simulate on their
// own; and every runtime returns the Result and the trace bytes of its
// private run. Not skipped under -short, so the race gate runs the
// concurrent case.
func TestBatchCacheSharesRankOutcomes(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	vpp := *plan
	vpp.Modules[model.Backbone].Config.VPP = 2
	// The encoder and the generator trade GPU counts: the same stages
	// and links, other prices.
	swapped := *plan
	enc, gen := &swapped.Modules[model.Encoder].Config, &swapped.Modules[model.Generator].Config
	if enc.DP == gen.DP {
		t.Fatal("fixture: swapping the encoder and generator pools changes nothing")
	}
	enc.DP, gen.DP = gen.DP, enc.DP
	dp := int64(plan.Modules[model.Backbone].Config.DP)

	const iters = 3
	type runner struct {
		plan   *orchestrator.Plan
		traced bool
		// rebuilt builds the template field by field rather than through
		// DistTrainConfig: equal content, built apart.
		rebuilt bool
	}
	// run drives one runtime per runner on cache c (private runs on
	// nil), in turn or at once, and returns each Result and trace.
	run := func(t *testing.T, c *BatchCache, at bool, rs ...runner) ([]*Result, [][]byte) {
		t.Helper()
		rts := make([]*Runtime, len(rs))
		for i, r := range rs {
			cfg := DistTrainConfig(spec, r.plan, corpus)
			if r.rebuilt {
				cfg = Config{Spec: spec, Plan: r.plan, Corpus: corpus, Reorder: true, DisaggregatedPreprocess: true, AsyncP2P: true}
			}
			cfg.GradientDim = 4
			cfg.Batches = c
			if r.traced {
				cfg.Trace = metrics.NewTrace()
			}
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rts[i] = rt
		}
		res := make([]*Result, len(rs))
		errs := make([]error, len(rs))
		var wg sync.WaitGroup
		for i, rt := range rts {
			if !at {
				res[i], errs[i] = rt.Run(iters)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], errs[i] = rt.Run(iters)
			}()
		}
		wg.Wait()
		traces := make([][]byte, len(rs))
		for i, rt := range rts {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if tr := rt.cfg.Trace; tr != nil {
				var buf bytes.Buffer
				if err := tr.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				traces[i] = buf.Bytes()
			}
		}
		return res, traces
	}
	private := func(t *testing.T, r runner) (*Result, []byte) {
		res, traces := run(t, nil, false, r)
		return res[0], traces[0]
	}

	for _, tc := range []struct {
		name string
		rs   []runner
		runs int64 // distinct run keys
	}{
		{"one plan", []runner{{plan, false, false}, {plan, false, false}, {plan, false, false}, {plan, false, false}}, 1},
		{"equal templates", []runner{{plan, false, false}, {plan, false, true}}, 1},
		{"plans", []runner{{plan, false, false}, {&vpp, false, false}, {&swapped, false, false}, {plan, false, false}}, 3},
		{"traced", []runner{{plan, true, false}, {plan, false, false}, {plan, true, false}}, 2},
	} {
		for _, at := range []bool{false, true} {
			name := tc.name + " in turn"
			if at {
				name = tc.name + " at once"
			}
			t.Run(name, func(t *testing.T) {
				var c BatchCache
				got, traces := run(t, &c, at, tc.rs...)
				for i, r := range tc.rs {
					want, wantTrace := private(t, r)
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("runtime %d diverged from its private run:\ngot  %+v\nwant %+v", i, got[i], want)
					}
					if !bytes.Equal(traces[i], wantTrace) {
						t.Errorf("runtime %d: trace diverged from its private run (%d vs %d bytes)", i, len(traces[i]), len(wantTrace))
					}
				}
				if want := tc.runs * iters * dp; c.simulated.Load() != want {
					t.Errorf("%d runtimes simulated %d ranks, want %d (%d run keys × %d iterations × DP %d)",
						len(tc.rs), c.simulated.Load(), want, tc.runs, iters, dp)
				}
			})
		}
	}
}

// TestSharedOutcomesOutliveAPrivateIteration: a runtime that shared an
// iteration's outcomes and then runs one privately (its class partner
// left) refills its own outcome slots, never the shared vector, whose
// ops other tenants' traces still read.
func TestSharedOutcomesOutliveAPrivateIteration(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	var c BatchCache
	start := func() *Runtime {
		cfg := DistTrainConfig(spec, plan, corpus)
		cfg.Batches = &c
		cfg.Trace = metrics.NewTrace()
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	a, b := start(), start()
	for _, rt := range []*Runtime{a, b} {
		if _, err := rt.RunIterationSequential(0); err != nil {
			t.Fatal(err)
		}
	}
	steady := scenario.At(nil, 0)
	p := a.prepare(0, steady)
	if !p.shared {
		t.Fatal("iteration 0 was not shared")
	}
	before := c.simulated.Load()
	shared := a.sharedRun(&p, a.cls.p2p, steady)
	if c.simulated.Load() != before {
		t.Fatal("the shared outcomes were simulated again")
	}
	want := make([]rankOutcome, len(shared))
	for d, o := range shared {
		want[d] = o
		want[d].spans = slices.Clone(o.spans)
	}
	if len(want[0].spans) == 0 {
		t.Fatal("a traced run shared no spans")
	}
	b.Close()
	if _, err := a.RunIterationSequential(1); err != nil {
		t.Fatal(err)
	}
	if c.simulated.Load() != before {
		t.Error("a lone runtime's iteration was simulated into the cache")
	}
	if !reflect.DeepEqual(shared, want) {
		t.Error("a private iteration wrote the shared outcome vector")
	}
}

// TestTracedPrivateOutcomesOutliveTheirIteration: a lone traced
// runtime (no BatchCache) hands each iteration's outcome vector to its
// trace's span block, which renders it whenever the trace is written,
// so no later iteration may simulate into it: the trace written after
// iteration 1 is a prefix of the one written after iteration 4.
func TestTracedPrivateOutcomesOutliveTheirIteration(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.Trace = metrics.NewTrace()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	j, err := rt.NewJob(4)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Finish()
	write := func() []byte {
		var buf bytes.Buffer
		if err := cfg.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := j.Step(); err != nil {
		t.Fatal(err)
	}
	first := write()
	for !j.Done() {
		if err := j.Step(); err != nil {
			t.Fatal(err)
		}
	}
	last := write()
	events := bytes.TrimSuffix(first, []byte("]}\n"))
	if len(last) <= len(first) || !bytes.HasPrefix(last, events) {
		t.Errorf("the trace after iteration 1 (%d bytes) is not a prefix of the trace after iteration 4 (%d bytes): a later iteration rewrote recorded ops",
			len(first), len(last))
	}
}

// TestSharedTracedTenantsSimulateOnce: two traced runtimes of one
// class stepping in turn on one BatchCache, the way fleet tenants do,
// simulate each iteration's rank vector once between them, and each
// trace still counts every op of its run: the event count pinned before
// tenants shared outcome vectors.
func TestSharedTracedTenantsSimulateOnce(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	const iters, events = 3, 594
	var c BatchCache
	jobs := make([]*Job, 2)
	for i := range jobs {
		cfg := DistTrainConfig(spec, plan, corpus)
		cfg.Batches = &c
		cfg.Trace = metrics.NewTrace()
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if jobs[i], err = rt.NewJob(iters); err != nil {
			t.Fatal(err)
		}
		defer jobs[i].Finish()
	}
	for it := 0; it < iters; it++ {
		for _, j := range jobs {
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dp := int64(plan.Modules[model.Backbone].Config.DP)
	if want := iters * dp; c.simulated.Load() != want {
		t.Errorf("two tenants simulated %d ranks, want %d (%d iterations × DP %d)", c.simulated.Load(), want, iters, dp)
	}
	for i, j := range jobs {
		if got := j.r.cfg.Trace.Len(); got != events {
			t.Errorf("tenant %d recorded %d events, want %d", i, got, events)
		}
	}
}
