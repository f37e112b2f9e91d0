package orchestrator

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"disttrain/internal/model"
)

// planOne is the one-spec, unseeded PlanMany call.
func planOne(ctx context.Context, s Spec, opts SearchOptions) (*Plan, error) {
	r := PlanMany(ctx, []PlanRequest{{Spec: s}}, opts)[0]
	return r.Plan, r.Err
}

// TestPlanSearchEquivalence is the engine's core guarantee: the
// parallel search returns a plan byte-identical to the sequential
// reference at every parallelism level. Run under -race by the CI
// race gate.
func TestPlanSearchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      model.MLLM
		nodes  int
		batch  int
		freeze model.FreezeSpec
	}{
		{"9b-full", model.MLLM9B(), 12, 96, model.FullTraining},
		{"15b-encoder-only", model.MLLM15B(), 16, 128, model.EncoderOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSpec(t, tc.m, tc.nodes, tc.batch, tc.freeze)
			want, err := planDistTrainSequential(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				got, err := planOne(context.Background(), s, SearchOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("parallelism %d diverged from sequential reference:\ngot  %+v\nwant %+v", par, got, want)
				}
			}
			// The default entry point must route through the engine and
			// agree too.
			got, err := PlanDistTrain(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("PlanDistTrain diverged from sequential reference")
			}
		})
	}
}

// TestPlanSearchCancellation: a cancelled context aborts the search
// with context.Canceled instead of returning a partial plan.
func TestPlanSearchCancellation(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := planOne(ctx, s, SearchOptions{Parallelism: 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})

	t.Run("mid-search", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		opts := SearchOptions{
			Parallelism: 2,
			OnCandidate: func(Candidate, *Plan, error) {
				if seen.Add(1) == 3 {
					cancel() // pull the plug after a few evaluations
				}
			},
		}
		if _, err := planOne(ctx, s, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if n := seen.Load(); n >= int64(len(enumerateCandidates(s, s.maxGPUs()))) {
			t.Errorf("cancellation did not stop the search early (%d candidates evaluated)", n)
		}
	})
}

// TestPlanSearchOnCandidate: the observer sees every enumerated
// candidate exactly once, and feasible callbacks carry plans.
func TestPlanSearchOnCandidate(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	total := len(enumerateCandidates(s, s.maxGPUs()))
	var calls, feasible atomic.Int64
	_, err := planOne(context.Background(), s, SearchOptions{
		Parallelism: 4,
		OnCandidate: func(c Candidate, p *Plan, err error) {
			calls.Add(1)
			if (p == nil) == (err == nil) {
				t.Errorf("candidate %v: want exactly one of plan/err, got plan=%v err=%v", c, p, err)
			}
			if p != nil {
				feasible.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != total {
		t.Errorf("observer saw %d candidates, enumeration has %d", calls.Load(), total)
	}
	if feasible.Load() == 0 {
		t.Error("no feasible candidates observed on a plannable spec")
	}
}

// TestPlanMany: the fleet sweep returns, per spec, the same plan as a
// standalone search, and isolates per-spec failures.
func TestPlanMany(t *testing.T) {
	small := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	big := newSpec(t, model.MLLM15B(), 16, 128, model.FullTraining)
	bad := small
	bad.GlobalBatch = 0 // fails Validate
	tiny := newSpec(t, model.MLLM72B(), 12, 96, model.FullTraining)
	tiny.MaxGPUs = 8 // feasibility failure: 72B cannot fit on one node

	results := PlanMany(context.Background(),
		[]PlanRequest{{Spec: small}, {Spec: bad}, {Spec: big}, {Spec: tiny}}, SearchOptions{Parallelism: 4})
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, s := range []Spec{small, big} {
		r := results[i*2] // positions 0 and 2
		if r.Err != nil {
			t.Fatalf("spec %d: %v", i*2, r.Err)
		}
		want, err := planDistTrainSequential(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Plan, want) {
			t.Errorf("spec %d: sweep plan diverged from standalone plan", i*2)
		}
	}
	if results[1].Err == nil || results[1].Plan != nil {
		t.Errorf("invalid spec: want error-only result, got %+v", results[1])
	}
	if results[3].Err == nil || results[3].Plan != nil {
		t.Errorf("infeasible spec: want error-only result, got %+v", results[3])
	}
}

// TestPlanManyCancellation: cancellation marks every undecided spec.
func TestPlanManyCancellation(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range PlanMany(ctx, []PlanRequest{{Spec: s}, {Spec: s}}, SearchOptions{Parallelism: 2}) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", r.Err)
		}
	}
}

// planDistTrainSequential is the single-threaded reference
// implementation of the §4.3 enumeration: the plain nested loop over
// the strategy set, solving each subproblem inline. The parallel
// engine must return byte-identical plans to this function
// (TestPlanSearchEquivalence).
func planDistTrainSequential(s Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc := newSearchCtx(&s)

	var candidates []*Plan
	for _, c := range sc.strategySet() {
		cand, err := sc.solveSubproblem(c, math.Inf(1), true)
		if err != nil {
			continue // infeasible combination
		}
		candidates = append(candidates, cand)
	}
	if len(candidates) == 0 {
		return nil, errNoFeasiblePlan
	}
	return selectPlan(candidates), nil
}
