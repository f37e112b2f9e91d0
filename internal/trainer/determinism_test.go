package trainer

import (
	"bytes"
	"reflect"
	"testing"

	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
)

// TestConcurrentRuntimeEquivalence is the engine's core guarantee: Run
// on a fresh runtime returns a Result byte-identical to a repeated run,
// and every iteration's stats equal a single iteration run alone on
// another fresh runtime, steady state and under scenario perturbation
// alike. The determinism gate reruns it at GOMAXPROCS=1.
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
			want, err := ref.Run(iters)
			if err != nil {
				t.Fatal(err)
			}

			rt, err := New(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			got, err := rt.Run(iters)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("repeated Run diverged:\ngot  %+v\nwant %+v", got, want)
			}

			// Single iterations on a fresh runtime agree too, at every
			// index the run covered.
			one, err := New(tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			defer one.Close()
			for i := 0; i < iters; i++ {
				st, err := one.RunIterationSequential(i)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, want.Iterations[i]) {
					t.Errorf("iteration %d: single-iteration stats diverged:\ngot  %+v\nwant %+v", i, st, want.Iterations[i])
				}
			}
		})
	}
}

// TestTraceByteIdenticalToSequential pins the trace against the
// scratch-reusing iteration loop: a trace-enabled Run serializes
// byte-identically to the same iterations run one by one
// (RunIterationSequential) and to a repeated Run, steady state and
// perturbed alike. The Job loop records nothing of its own on a run
// without failures, pool events or a controller.
func TestTraceByteIdenticalToSequential(t *testing.T) {
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
			traceBytes := func(run func(*Runtime) error) []byte {
				cfg := tc.mk()
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
				for i := 0; i < iters; i++ {
					if _, err := rt.RunIterationSequential(i); err != nil {
						return err
					}
				}
				return nil
			})
			if len(want) == 0 {
				t.Fatal("single iterations recorded no trace")
			}
			run := func(rt *Runtime) error {
				_, err := rt.Run(iters)
				return err
			}
			if got := traceBytes(run); !bytes.Equal(got, want) {
				t.Errorf("Run's trace diverged from its iterations run one by one (%d vs %d bytes)", len(got), len(want))
			}
			if got := traceBytes(run); !bytes.Equal(got, want) {
				t.Errorf("repeated Run's trace diverged (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
