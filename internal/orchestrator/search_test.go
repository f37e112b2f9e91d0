package orchestrator

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"disttrain/internal/model"
)

// TestPlanSearchEquivalence is the engine's core guarantee: the
// best-first search returns a plan byte-identical to the sequential
// reference, whatever the inert Parallelism says.
func TestPlanSearchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      model.MLLM
		nodes  int
		batch  int
		freeze model.FreezeSpec
	}{
		{"9b-full", model.MLLM9B(), 12, 96, model.FullTraining},
		{"15b-encoder-only", model.MLLM15B(), 16, 128, freezeSetting("encoder-only")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSpec(t, tc.m, tc.nodes, tc.batch, tc.freeze)
			want, err := planDistTrainSequential(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				got, err := Search(context.Background(), s, SearchOptions{Parallelism: par})
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
		if _, err := Search(ctx, s, SearchOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})

	t.Run("mid-search", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		opts := SearchOptions{
			OnCandidate: func(Candidate, *Plan, error) {
				if seen.Add(1) == 3 {
					cancel() // pull the plug after a few evaluations
				}
			},
		}
		if _, err := Search(ctx, s, opts); !errors.Is(err, context.Canceled) {
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
	_, err := Search(context.Background(), s, SearchOptions{
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

// TestSearchSweepMatchesSequential: a sweep planned one spec at a time returns, per spec,
// the plan of the sequential reference, and an invalid or infeasible
// spec fails alone.
func TestSearchSweepMatchesSequential(t *testing.T) {
	small := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	big := newSpec(t, model.MLLM15B(), 16, 128, model.FullTraining)
	bad := small
	bad.GlobalBatch = 0 // fails Validate
	tiny := newSpec(t, model.MLLM72B(), 12, 96, model.FullTraining)
	tiny.MaxGPUs = 8 // feasibility failure: 72B cannot fit on one node

	for i, s := range []Spec{small, bad, big, tiny} {
		plan, err := Search(context.Background(), s, SearchOptions{})
		if i%2 == 1 {
			if err == nil || plan != nil {
				t.Errorf("spec %d: want an error alone, got plan %+v, err %v", i, plan, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want, err := planDistTrainSequential(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, want) {
			t.Errorf("spec %d: sweep plan diverged from the sequential reference", i)
		}
	}
}

// TestSearchCancellation: a search the context cut short reports the
// cancellation, but one cancelled only after its last candidate was
// evaluated still reduces to the reference plan.
func TestSearchCancellation(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, s, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled: got %v, want context.Canceled", err)
	}

	want, err := planDistTrainSequential(s)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(enumerateCandidates(s, s.maxGPUs())))
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	got, err := Search(ctx, s, SearchOptions{
		OnCandidate: func(Candidate, *Plan, error) {
			if seen.Add(1) == total {
				cancel()
			}
		},
	})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("cancelled after the last candidate: err %v, plan diverged: %v", err, !reflect.DeepEqual(got, want))
	}
}

// planDistTrainSequential is the reference implementation of the §4.3
// enumeration: the plain loop over the strategy set, solving every
// subproblem in full. The best-first engine must return byte-identical
// plans to this function (TestPlanSearchEquivalence,
// TestSearchSolvesOnlyTheBand).
func planDistTrainSequential(s Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc := newSearchCtx(&s)

	var candidates []*Plan
	for i := range sc.strategySet() {
		cand, err := sc.solveSubproblem(i)
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
