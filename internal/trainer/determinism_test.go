package trainer

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
)

// TestConcurrentRuntimeEquivalence is the engine's core guarantee
// (mirroring the plan search's TestPlanSearchEquivalence): the
// concurrent runtime — rank workers plus the async data service —
// produces a Result byte-identical to the pinned sequential reference
// at every worker-pool size, steady state and under scenario
// perturbation alike. Run under -race by the CI race gate.
func TestConcurrentRuntimeEquivalence(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := scenario.Parse("straggler:iters=1-2,rank=0,factor=2.5; " +
		"straggler:iters=2-3,stage=0,factor=3,from=0.01,until=0.05; " +
		"congestion:iters=0-1,factor=4; preprocess:iters=1-3,factor=6")
	if err != nil {
		t.Fatal(err)
	}
	stragglers, err := scenario.Parse("random-stragglers:seed=11,ranks=16,prob=0.4,max=3")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 4
	for _, tc := range []struct {
		name string
		mk   func() Config
	}{
		{"disttrain-steady", func() Config { return DistTrainConfig(spec, plan, corpus) }},
		{"megatron-colocated", func() Config { return MegatronConfig(spec, plan, corpus) }},
		{"disttrain-perturbed", func() Config {
			c := DistTrainConfig(spec, plan, corpus)
			c.Scenario = perturbed
			return c
		}},
		{"random-stragglers", func() Config {
			c := DistTrainConfig(spec, plan, corpus)
			c.Scenario = stragglers
			return c
		}},
		{"checkpointed", func() Config {
			c := DistTrainConfig(spec, plan, corpus)
			c.CheckpointEvery = 1
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := New(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			want, err := ref.RunSequential(iters)
			if err != nil {
				t.Fatal(err)
			}

			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				cfg := tc.mk()
				cfg.Parallelism = par
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.Run(iters)
				rt.Close()
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("parallelism %d diverged from sequential reference:\ngot  %+v\nwant %+v", par, got, want)
				}
			}

			// Single iterations agree too, at every index the run covered.
			rt, err := New(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for i := 0; i < iters; i++ {
				seq, err := rt.RunIterationSequential(i)
				if err != nil {
					t.Fatal(err)
				}
				conc, err := rt.iteration(rt.prepare(i), rt.workers())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, conc) {
					t.Errorf("iteration %d: concurrent stats diverged:\ngot  %+v\nwant %+v", i, conc, seq)
				}
			}
		})
	}
}

// TestTraceByteIdenticalAcrossWorkers pins the trace against the
// scratch-reusing iteration loop: a trace-enabled run serializes
// byte-identically to the pinned sequential reference at every
// worker-pool size, steady state and perturbed alike. Rank workers
// only hand their ops back; the iteration is recorded as one batch
// after they join, so this is the test (run under -race by CI) that
// the hand-off is ordered and the batch order is the rank order.
func TestTraceByteIdenticalAcrossWorkers(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := scenario.Parse("straggler:iter=1,rank=0,factor=2.5")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 3
	for _, tc := range []struct {
		name string
		mk   func() Config
	}{
		{"steady", func() Config { return DistTrainConfig(spec, plan, corpus) }},
		{"perturbed", func() Config {
			c := DistTrainConfig(spec, plan, corpus)
			c.Scenario = perturbed
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traceBytes := func(run func(*Runtime) error, par int) []byte {
				cfg := tc.mk()
				cfg.Parallelism = par
				cfg.Trace = metrics.NewTrace()
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				if err := run(rt); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := cfg.Trace.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want := traceBytes(func(rt *Runtime) error {
				_, err := rt.RunSequential(iters)
				return err
			}, 0)
			if len(want) == 0 {
				t.Fatal("sequential reference recorded no trace")
			}
			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				got := traceBytes(func(rt *Runtime) error {
					_, err := rt.Run(iters)
					return err
				}, par)
				if !bytes.Equal(got, want) {
					t.Errorf("parallelism %d: trace diverged from sequential reference (%d vs %d bytes)",
						par, len(got), len(want))
				}
			}
		})
	}
}
