package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// TestRunStartsNoGoroutine pins that a run is one goroutine: a fleet
// without the shared preprocessing tier, and a standalone runtime
// without a live producer pool, never have more goroutines than when
// they started — sampled in every OnRound and after every Job.Step, on
// one P, where a goroutine a step started has not yet run to its end.
// Only the one real parallel seam, a producer's build, starts
// goroutines.
func TestRunStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, corpus := buildSpec(t, 8, 32)
	// sampler returns a check that fails when the process has more
	// goroutines than when sampler was called.
	sampler := func(t *testing.T) func(where string, at int) {
		base := runtime.NumGoroutine()
		return func(where string, at int) {
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s %d: %d goroutines, %d at the start", where, at, n, base)
			}
		}
	}

	t.Run("fleet", func(t *testing.T) {
		cfg := perturbedFleet(t, spec, corpus)
		check := sampler(t)
		cfg.OnRound = func(info RoundInfo) { check("round", info.Round) }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("job %s: %v", jr.Name, jr.Err)
			}
		}
		if res.Rounds < 4 {
			t.Fatalf("fleet ran %d rounds", res.Rounds)
		}
	})

	t.Run("runtime", func(t *testing.T) {
		sc, err := scenario.Parse("straggler:iter=1,rank=0,factor=2; failure:iter=3,downtime=1")
		if err != nil {
			t.Fatal(err)
		}
		cfg := trainer.DistTrainConfig(spec, nil, corpus)
		if cfg.Plan, err = orchestrator.PlanDistTrain(spec); err != nil {
			t.Fatal(err)
		}
		cfg.Scenario, cfg.CheckpointEvery = sc, 2
		rt, err := trainer.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		check := sampler(t)
		j, err := rt.NewJob(5)
		if err != nil {
			t.Fatal(err)
		}
		for steps := 0; !j.Done(); steps++ {
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
			check("step", steps)
		}
		if res := j.Finish(); res.Failures != 1 {
			t.Fatalf("run survived %d failures, want 1", res.Failures)
		}
	})
}

// TestConcurrentFleetsMatchSolo: two fleet runs on separate goroutines,
// sharing one corpus and one plan cache, each return the job results
// and merged trace they return alone. A fleet run is one goroutine, so
// what two of them share is the whole race surface: the corpus memo,
// the plan cache, the trace label table and the trainer's process-wide
// scratch pools. Not skipped under -short, so the race gate runs it.
func TestConcurrentFleetsMatchSolo(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	a := perturbedFleet(t, spec, corpus)
	b := perturbedFleet(t, spec, corpus)
	b.Policy = fifo
	b.Jobs = append(b.Jobs, JobSpec{Name: "c", Train: b.Jobs[0].Train, Iters: 3, MinNodes: 2, MaxNodes: 2, Arrive: 2})
	type outcome struct {
		jobs  []JobResult
		trace []byte
	}
	run := func(cfg Config) (outcome, error) {
		res, err := Run(cfg)
		if err != nil {
			return outcome{}, err
		}
		jobs := append([]JobResult(nil), res.Jobs...)
		for i := range jobs {
			if jobs[i].Err != nil {
				return outcome{}, jobs[i].Err
			}
			jobs[i].Trace = nil // compared via the merged trace bytes
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteJSON(&buf); err != nil {
			return outcome{}, err
		}
		return outcome{jobs, buf.Bytes()}, nil
	}
	cfgs := []Config{a, b}
	solo := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if solo[i], err = run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	cache := orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	got := make([]outcome, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		cfg.Cache = cache
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(cfg)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i].jobs, solo[i].jobs) {
			t.Errorf("fleet %d: job results diverged from its solo run", i)
		}
		if !bytes.Equal(got[i].trace, solo[i].trace) {
			t.Errorf("fleet %d: merged trace diverged from its solo run (%d vs %d bytes)", i, len(got[i].trace), len(solo[i].trace))
		}
	}
}
