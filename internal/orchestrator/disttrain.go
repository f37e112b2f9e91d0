package orchestrator

import (
	"context"
	"errors"
	"math"

	"disttrain/internal/model"
	"disttrain/internal/parallel"
	"disttrain/internal/solve"
)

// PlanDistTrain runs the adaptive model orchestration algorithm of
// §4.3:
//
//  1. enumerate the finite strategy set — TP_lm in {1,2,4,8}, DP_lm
//     over the factors of BS/M that fit the fleet, and the
//     encoder/generator group widths in {1,2,4,8};
//  2. for each combination, the non-convex problem collapses to a
//     convex subproblem in the allocations (x, y, z): minimise
//     warm-up(x,z) + max(w_lm/y, w_me/x, w_mg/z)*(K-1) on the capped
//     simplex with memory-derived lower bounds — solved to optimality
//     by water-filling plus a 2-D golden-section refinement of the
//     warm-up term;
//  3. round allocations to the unit granularities (TP*DP for the LLM,
//     group width for encoder/generator), re-evaluate the exact integer
//     objective, and keep the argmin.
//
// The result is the plan with the smallest estimated iteration time,
// which may deliberately leave GPUs unused when extra GPUs no longer
// reduce iteration time (§7.1).
//
// The enumeration runs on the best-first search engine (search.go)
// with default options; call Search for cancellation or per-candidate
// observation, and a PlanCache for reuse across specs.
func PlanDistTrain(s Spec) (*Plan, error) {
	return Search(context.Background(), s, SearchOptions{})
}

// selectBand is selectPlan's tie-break width: any candidate within 1%
// of the fastest iteration time competes on GPU count (§7.1). The
// search's stop line shares this constant — a pruned candidate must be
// provably outside the band.
const selectBand = 1.01

// pruneSlack guards the prune comparison against floating-point
// ordering at the band edge: a candidate is only pruned when its lower
// bound clears bound*selectBand by this relative margin.
const pruneSlack = 1e-9

// selectPlan picks the fastest candidate, then trades within a 1%
// iteration-time band for the fewest GPUs: "DistTrain intentionally
// allocates fewer resources in some cases because adding more GPUs
// yields no further improvements... freeing the remaining GPUs for
// concurrent tasks" (§7.1).
func selectPlan(candidates []*Plan) *Plan {
	fastest := candidates[0]
	for _, c := range candidates[1:] {
		if c.IterTime < fastest.IterTime {
			fastest = c
		}
	}
	best := fastest
	for _, c := range candidates {
		if c.IterTime <= fastest.IterTime*selectBand {
			if c.TotalGPUs() < best.TotalGPUs() ||
				(c.TotalGPUs() == best.TotalGPUs() && c.IterTime < best.IterTime) {
				best = c
			}
		}
	}
	return best
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

// Why a strategy combination yields no plan. Static values: a cold
// search rejects hundreds of combinations and reports each to its
// OnCandidate observer.
var (
	errNoMicrobatch       = errors.New("orchestrator: fewer than one microbatch")
	errLowerExceedsBudget = errors.New("orchestrator: lower bounds exceed budget")
	errNoValidPP          = errors.New("orchestrator: no valid PP for backbone")
	errRoundingOverBudget = errors.New("orchestrator: rounding exceeded budget")
)

// subproblemFor folds the constants of the strategy set's i-th
// candidate into its convex program. ppFloor is the backbone's memory
// floor at the candidate's (TP, DP).
func (sc *searchCtx) subproblemFor(i int) (sub subproblem, ppFloor int, err error) {
	c := sc.cands[i]
	tpLM, dpLM, wME, wMG := c.TPLM, c.DPLM, c.WME, c.WMG
	s, m := sc.spec, sc.m
	k := s.GlobalBatch / (dpLM * s.Microbatch) // microbatches per iteration
	if k < 1 {
		return sub, 0, errNoMicrobatch
	}
	cLM := sc.cTrain(model.Backbone, tpLM)
	cME := sc.cTrain(model.Encoder, wME)
	cMG := sc.cTrain(model.Generator, wMG)

	floor := sc.floors[i/(len(sc.tpSizes)*len(sc.tpSizes))] // i's shape block
	if floor.err != nil {
		return sub, 0, floor.err
	}
	sub = subproblem{
		// Warm-up terms (Eq. 1): M*C_lm/VPP + DP_lm*M*w/x * C (PP_me = 1
		// for the modality modules).
		base: m * cLM / float64(sc.vpp),
		a:    float64(dpLM) * m * float64(wME) * cME,
		c:    float64(dpLM) * m * float64(wMG) * cMG,
		// Steady-phase weights: T_mod = w_mod / alloc.
		w: [3]float64{
			float64(dpLM) * float64(wME) * m * cME,  // x: encoder
			float64(dpLM) * float64(tpLM) * m * cLM, // y: backbone
			float64(dpLM) * float64(wMG) * m * cMG,  // z: generator
		},
		kk:     float64(k - 1),
		budget: float64(sc.n),
		// Lower bounds: memory floors and granularity minimums.
		lower: [3]float64{float64(wME), float64(tpLM * dpLM * floor.pp), float64(wMG)},
	}
	if sub.lower[0]+sub.lower[1]+sub.lower[2] > sub.budget {
		return sub, 0, errLowerExceedsBudget
	}
	return sub, floor.pp, nil
}

// solveSubproblem solves the strategy set's i-th candidate in full:
// water-fill, refine, then build.
func (sc *searchCtx) solveSubproblem(i int) (*Plan, error) {
	sub, ppFloor, err := sc.subproblemFor(i)
	if err != nil {
		return nil, err
	}
	// Stage 1: exact water-filling on the steady term gives the optimum
	// of the dominant component.
	wf := solve.WaterFillProblem{Weights: sub.w[:], Lower: sub.lower[:], Budget: sub.budget}
	xs, _, err := wf.Solve()
	if err != nil {
		return nil, err
	}
	// Stage 2: 2-D golden-section refinement of the full objective.
	at := sub.refine([3]float64{xs[0], xs[1], xs[2]})
	return sc.build(sc.cands[i], &sub, ppFloor, at)
}

// lowerBound bounds from below every iteration time candidate c can
// reach — including the exact integer time, because evaluate's
// stage/warm-up algebra equals the subproblem objective at the rounded
// allocation for plans of the searched shape (up to float ordering,
// which pruneSlack absorbs). A candidate whose lower bound exceeds an
// achievable time's selectBand can be neither the fastest plan nor
// inside selectPlan's tie-break band. +Inf: stage 3 can build nothing.
//
// Both bounds use what stage 3 can build: x a positive multiple of wME,
// z of wMG (RoundAllocation never rounds below one granule), and
// y = TP·DP·pp for a divisor pp of the layer count at least ppFloor,
// with x + y + z <= n — so pp is also at most the largest divisor that
// leaves one granule each to the modality modules.
func (sc *searchCtx) lowerBound(c Candidate, sub *subproblem, ppFloor int) float64 {
	unit, n := c.TPLM*c.DPLM, sc.n
	pps := sc.divisors.between(ppFloor, (n-c.WME-c.WMG)/unit)
	if len(pps) == 0 {
		return math.Inf(1)
	}
	// Integer corner: each axis at the largest constructible value the
	// others' minimums leave it. On small leases the granularity gap
	// dwarfs the continuous one, and these caps are where it shows.
	minY, yCap := unit*pps[0], unit*pps[len(pps)-1]
	xCap := (n - minY - c.WMG) / c.WME * c.WME
	zCap := (n - minY - c.WME) / c.WMG * c.WMG
	return max(sub.objective(float64(xCap), float64(yCap), float64(zCap)), sub.discreteBound(unit, pps))
}

// build is stage 3: round the continuous allocation to unit
// granularities, snap the backbone's PP to a layer divisor, and score
// the resulting plan exactly.
func (sc *searchCtx) build(c Candidate, sub *subproblem, ppFloor int, at [3]float64) (*Plan, error) {
	tpLM, dpLM, wME, wMG := c.TPLM, c.DPLM, c.WME, c.WMG
	n := sc.n
	granule := [3]int{wME, tpLM * dpLM, wMG}
	alloc := solve.RoundAllocation(at[:], sub.w[:], granule[:], n)

	// The backbone's PP must divide its layer count: snap down, then
	// hand freed GPUs to the bottleneck modality module.
	ppLM := alloc[1] / (tpLM * dpLM)
	if ppLM < ppFloor {
		ppLM = ppFloor
	}
	ppLM = sc.divisors.snapPPToLayers(ppLM, ppFloor)
	if ppLM == 0 {
		return nil, errNoValidPP
	}
	alloc[1] = ppLM * tpLM * dpLM
	if alloc[0]+alloc[1]+alloc[2] > n {
		return nil, errRoundingOverBudget
	}

	plan := &Plan{
		Strategy: "disttrain",
		Modules: [3]ModulePlan{
			{Module: model.Encoder, Config: parallel.Config{TP: wME, PP: 1, DP: alloc[0] / wME, VPP: 1}, Replicated: true},
			{Module: model.Backbone, Config: parallel.Config{TP: tpLM, PP: ppLM, DP: dpLM, VPP: sc.vpp, SP: true}},
			{Module: model.Generator, Config: parallel.Config{TP: wMG, PP: 1, DP: alloc[2] / wMG, VPP: 1}, Replicated: true},
		},
	}
	if err := sc.evaluate(plan); err != nil {
		return nil, err
	}
	return plan, nil
}
