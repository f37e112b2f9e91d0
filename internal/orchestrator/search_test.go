package orchestrator

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"disttrain/internal/model"
	"disttrain/internal/parallel"
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
				got, err := Search(s, SearchOptions{Parallelism: par})
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

// TestPlanSearchOnCandidate: the observer sees every enumerated
// candidate exactly once, and feasible callbacks carry plans.
func TestPlanSearchOnCandidate(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	total := len(enumerateCandidates(s, s.maxGPUs()))
	var calls, feasible atomic.Int64
	_, err := Search(s, SearchOptions{
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
		plan, err := Search(s, SearchOptions{})
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

// planDistTrainSequential is the reference implementation of the §4.3
// enumeration: the plain loop over the strategy set, solving every
// candidate, then the engine's §7.1 reduce. The best-first engine must
// return byte-identical plans to this function
// (TestPlanSearchEquivalence, TestSearchSolvesOnlyTheBand);
// TestDistTrainMatchesBruteForce holds both to brute force.
func planDistTrainSequential(s Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc := newSearchCtx(&s)
	var solved []solvedPlan
	for i := range sc.strategySet() {
		if sp, err := sc.solveCandidate(i); err == nil {
			solved = append(solved, sp)
		}
	}
	return sc.reducePlans(solved)
}

// enumerateCandidates materialises the strategy set in the order of
// the original nested-loop enumeration: TP_lm, DP_lm, w_me, w_mg. It is
// the reference the block table's index arithmetic must reproduce
// (TestStrategySetMatchesEnumeration).
func enumerateCandidates(s Spec, n int) []Candidate {
	tpSizes := parallel.TPSizes(s.Cluster.GPUsPerNode)
	var out []Candidate
	for _, tpLM := range tpSizes {
		for _, dpLM := range dpCandidates(s, tpLM, n) {
			for _, wME := range tpSizes {
				for _, wMG := range tpSizes {
					out = append(out, Candidate{TPLM: tpLM, DPLM: dpLM, WME: wME, WMG: wMG})
				}
			}
		}
	}
	return out
}

// dpCandidates enumerates DP_lm values: factors of BS/M (so every DP
// rank sees the same microbatch count) that fit the fleet alongside at
// least one PP stage.
func dpCandidates(s Spec, tpLM, n int) []int {
	maxDP := n / tpLM
	total := s.GlobalBatch / s.Microbatch
	var out []int
	for dp := 1; dp <= maxDP && dp <= total; dp++ {
		if total%dp == 0 {
			out = append(out, dp)
		}
	}
	return out
}

// TestStrategySetMatchesEnumeration: the block table resolves every
// index to the nested-loop enumeration's candidate, indexOf inverts
// it, and each shape's floor — walked down from the previous shape's
// by llmMemoryFloor — is its full scan's, as is a walk from any
// divisor (one that does not fit falls back to the scan). The cases
// are small and odd leases, batches with few and many factors, and
// Table 3's sizes, for all three models under full training and every
// frozen setting. The 72B backbone fits nowhere on its narrowest
// shapes (errNoFit), where the walk restarts from the scan.
func TestStrategySetMatchesEnumeration(t *testing.T) {
	noFit, walked := 0, 0
	for _, m := range []model.MLLM{model.MLLM9B(), model.MLLM15B(), model.MLLM72B()} {
		for _, freeze := range append([]model.FreezeSpec{model.FullTraining}, model.FrozenSettings()...) {
			base := newSpec(t, m, 4, 16, freeze)
			for _, tc := range []struct{ nodes, batch, maxGPUs int }{
				{1, 16, 0}, {1, 16, 3}, {2, 7, 0}, {3, 96, 0}, {4, 16, 0}, {12, 96, 0}, {14, 240, 0}, {162, 1920, 0}, {6, 1, 0},
			} {
				s := base
				s.Cluster.Nodes, s.GlobalBatch, s.MaxGPUs = tc.nodes, tc.batch, tc.maxGPUs
				sc := newSearchCtx(&s)
				want := enumerateCandidates(s, sc.n)
				if got := sc.strategySet(); got != len(want) {
					t.Fatalf("%s %s %+v: %d candidates, enumeration has %d", m.Name, freeze.Name, tc, got, len(want))
				}
				for i, c := range want {
					if got := sc.candidate(i); got != c {
						t.Fatalf("%s %s %+v: candidate %d is %v, want %v", m.Name, freeze.Name, tc, i, got, c)
					}
					if got := sc.indexOf(c); got != i {
						t.Fatalf("%s %s %+v: indexOf(%v) = %d, want %d", m.Name, freeze.Name, tc, c, got, i)
					}
				}
				for j, sh := range sc.shapes {
					pp, err := sc.llmMemoryFloor(sh.tp, sh.dp, 0)
					if pp != sh.floor || (err == nil) != (sh.floor > 0) || (err == nil) != (sh.err == nil) {
						t.Fatalf("%s %s %+v: shape %+v, llmMemoryFloor %d, %v", m.Name, freeze.Name, tc, sh, pp, err)
					}
					for _, prev := range sc.divisors {
						if got, _ := sc.llmMemoryFloor(sh.tp, sh.dp, prev); got != pp {
							t.Fatalf("%s %s %+v: shape %+v, walk from %d finds %d, scan %d", m.Name, freeze.Name, tc, sh, prev, got, pp)
						}
					}
					if err != nil {
						noFit++
					} else if j > 0 && sc.shapes[j-1].tp == sh.tp && sc.shapes[j-1].floor > 1 {
						walked++
					}
				}
				if sc.indexOf(Candidate{TPLM: 3, DPLM: 1, WME: 1, WMG: 1}) != -1 || sc.indexOf(Candidate{TPLM: 1, DPLM: 1, WME: 3, WMG: 1}) != -1 {
					t.Errorf("%s %s %+v: a candidate outside the strategy set has an index", m.Name, freeze.Name, tc)
				}
			}
		}
	}
	if noFit == 0 || walked == 0 {
		t.Errorf("%d shapes fit nowhere and %d floors walked down from a floor above 1; the cases must exercise both", noFit, walked)
	}
}
