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

// Why a strategy combination yields no plan. Static values: a cold
// search rejects hundreds of combinations and reports each to its
// OnCandidate observer.
var (
	errNoMicrobatch       = errors.New("orchestrator: fewer than one microbatch")
	errLowerExceedsBudget = errors.New("orchestrator: lower bounds exceed budget")
	errNoValidPP          = errors.New("orchestrator: no valid PP for backbone")
	errRoundingOverBudget = errors.New("orchestrator: rounding exceeded budget")
)

// noSubproblem says why the member (wME, wMG) of shape sh has no
// convex program, or returns nil: the integer checks of subproblemFor,
// which also classify the members of a shape the search never
// expanded.
func (sc *searchCtx) noSubproblem(sh *shape, wME, wMG int) error {
	if sh.k < 1 {
		return errNoMicrobatch
	}
	if sh.err != nil {
		return sh.err
	}
	if wME+sh.tp*sh.dp*sh.floor+wMG > sc.n {
		return errLowerExceedsBudget
	}
	return nil
}

// subproblemFor folds the constants of the strategy set's i-th
// candidate into its convex program. ppFloor is the backbone's memory
// floor at the candidate's (TP, DP).
func (sc *searchCtx) subproblemFor(i int) (sub subproblem, ppFloor int, err error) {
	nt := len(sc.tpSizes)
	sh := &sc.shapes[i/(nt*nt)]
	me, mg := i/nt%nt, i%nt
	if err := sc.noSubproblem(sh, sc.tpSizes[me], sc.tpSizes[mg]); err != nil {
		return sub, 0, err
	}
	return sc.fold(sh, me, mg), sh.floor, nil
}

// fold builds the convex program of shape sh's member with widths
// tpSizes[me] and tpSizes[mg], unchecked.
func (sc *searchCtx) fold(sh *shape, me, mg int) subproblem {
	m, dp, cLM := sc.m, float64(sh.dp), sh.cLM
	wME, cME := float64(sc.tpSizes[me]), sc.cTrainTP[model.Encoder][me]
	wMG, cMG := float64(sc.tpSizes[mg]), sc.cTrainTP[model.Generator][mg]
	return subproblem{
		// Warm-up terms (Eq. 1): M*C_lm/VPP + DP_lm*M*w/x * C (PP_me = 1
		// for the modality modules).
		base: m * cLM / float64(sc.vpp),
		a:    dp * m * wME * cME,
		c:    dp * m * wMG * cMG,
		// Steady-phase weights: T_mod = w_mod / alloc.
		w: [3]float64{
			dp * wME * m * cME,            // x: encoder
			dp * float64(sh.tp) * m * cLM, // y: backbone
			dp * wMG * m * cMG,            // z: generator
		},
		kk:     float64(sh.k - 1),
		budget: float64(sc.n),
		// Lower bounds: memory floors and granularity minimums.
		lower: [3]float64{wME, float64(sh.tp * sh.dp * sh.floor), wMG},
	}
}

// blockBound lower-bounds every member of shape block b: discreteBound
// at the block's cheapest modality constants — a, c, w[0] and w[2]
// each the minimum over the widths — over every PP a member can take,
// up to the cap of the narrowest (w_me, w_mg). Square roots, sums,
// products and quotients of IEEE floats are monotone in their
// operands, and a member's divisors are a subset of these, so the
// bound is ≤ each member's discreteBound and hence its lowerBound.
// +Inf: no member has a subproblem stage 3 can build from.
func (sc *searchCtx) blockBound(b int) float64 {
	sh := &sc.shapes[b]
	unit := sh.tp * sh.dp
	if sh.err != nil || sh.k < 1 {
		return math.Inf(1)
	}
	pps := sc.divisors.between(sh.floor, (sc.n-2*sc.tpSizes[0])/unit)
	if len(pps) == 0 {
		return math.Inf(1)
	}
	// a and w[0] depend on w_me alone, c and w[2] on w_mg alone.
	sub := sc.fold(sh, 0, 0)
	for t := 1; t < len(sc.tpSizes); t++ {
		m := sc.fold(sh, t, t)
		sub.a, sub.w[0] = min(sub.a, m.a), min(sub.w[0], m.w[0])
		sub.c, sub.w[2] = min(sub.c, m.c), min(sub.w[2], m.w[2])
	}
	return sub.discreteBound(unit, pps)
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
	return sc.build(sc.candidate(i), &sub, ppFloor, at)
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
