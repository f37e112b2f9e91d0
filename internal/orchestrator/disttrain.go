package orchestrator

import (
	"context"
	"errors"
	"math"

	"disttrain/internal/model"
	"disttrain/internal/parallel"
)

// PlanDistTrain runs the adaptive model orchestration algorithm of
// §4.3:
//
//  1. enumerate the finite strategy set — TP_lm in {1,2,4,8}, DP_lm
//     over the factors of BS/M that fit the fleet, and the
//     encoder/generator group widths in {1,2,4,8};
//  2. for each combination, the non-convex problem collapses to one in
//     the allocations (x, y, z): minimise warm-up(x,z) +
//     max(w_lm/y, w_me/x, w_mg/z)*(K-1) over x and z multiples of the
//     group widths and y = TP_lm·DP_lm·PP for a layer divisor PP, within
//     the budget and the memory floors. The backbone takes one of a few
//     sizes and every term is non-increasing in x and z, so the integer
//     optimum is a short enumeration over (PP, x) with z largest — solved
//     exactly, where the paper's CVX relaxation (§6) rounds;
//  3. keep §7.1's rule over every buildable point: find the fastest time
//     T*, then take the fewest GPUs within T*·selectBand.
//
// The result may deliberately leave GPUs unused when extra GPUs no
// longer reduce iteration time (§7.1).
//
// The enumeration runs on the best-first search engine (search.go)
// with default options; call Search for cancellation or per-candidate
// observation, and a PlanCache for reuse across specs.
func PlanDistTrain(s Spec) (*Plan, error) {
	return Search(context.Background(), s, SearchOptions{})
}

// selectBand is §7.1's tie-break width: any buildable point within 1%
// of the fastest iteration time competes on GPU count. The search's
// stop line shares this constant — a pruned candidate must be provably
// outside the band.
const selectBand = 1.01

// pruneSlack guards the prune comparison against floating-point
// ordering at the band edge: a candidate is only pruned when its lower
// bound clears bound*selectBand by this relative margin.
const pruneSlack = 1e-9

// Why a strategy combination yields no plan. Static values: a cold
// search rejects hundreds of combinations and reports each to its
// OnCandidate observer.
var (
	errNoMicrobatch       = errors.New("orchestrator: fewer than one microbatch")
	errLowerExceedsBudget = errors.New("orchestrator: lower bounds exceed budget")
)

// noSubproblem says why the member (wME, wMG) of shape sh has no
// buildable point, or returns nil: the integer checks of subproblemFor,
// which also classify the members of a shape the search never
// expanded. A member that passes can build at least its lower bounds:
// the memory-floor PP and the fewest GPUs at which each modality
// module fits.
func (sc *searchCtx) noSubproblem(sh *shape, wME, wMG int) error {
	if sh.k < 1 {
		return errNoMicrobatch
	}
	if sh.err != nil {
		return sh.err
	}
	if sc.lowest(model.Encoder, wME)+sh.tp*sh.dp*sh.floor+sc.lowest(model.Generator, wMG) > sc.n {
		return errLowerExceedsBudget
	}
	return nil
}

// lowest is the fewest GPUs a replicated modality module of width w
// can take: the smallest multiple of w at or above fitFrom, so more
// than the budget when the module fits nowhere.
func (sc *searchCtx) lowest(mod model.Module, w int) int {
	return max(sc.fitFrom[mod]+w-1, w) / w * w
}

// subproblemFor folds the constants of the strategy set's i-th
// candidate into the objective its bounds relax. ppFloor is the
// backbone's memory floor at the candidate's (TP, DP).
func (sc *searchCtx) subproblemFor(i int) (sub subproblem, ppFloor int, err error) {
	nt := len(sc.tpSizes)
	sh := &sc.shapes[i/(nt*nt)]
	me, mg := i/nt%nt, i%nt
	if err := sc.noSubproblem(sh, sc.tpSizes[me], sc.tpSizes[mg]); err != nil {
		return sub, 0, err
	}
	return sc.fold(sh, me, mg), sh.floor, nil
}

// fold builds the objective of shape sh's member with widths
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
	}
}

// blockBound lower-bounds every member of shape block b: discreteBound
// at the block's cheapest modality constants — a, c, w[0] and w[2]
// each the minimum over the widths — over every PP a member can take,
// up to the cap of the narrowest (w_me, w_mg). Square roots, sums,
// products and quotients of IEEE floats are monotone in their
// operands, and a member's divisors are a subset of these, so the
// bound is ≤ each member's discreteBound and hence its lowerBound.
// +Inf: no member has a buildable point.
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

// solveSubproblem solves the strategy set's i-th candidate exactly:
// the plan at its fastest buildable point.
func (sc *searchCtx) solveSubproblem(i int) (*Plan, error) {
	g, err := sc.gridFor(i)
	if err != nil {
		return nil, err
	}
	return sc.build(i, g.fastest())
}

// lowerBound bounds from below every iteration time candidate c can
// reach at a buildable point. The subproblem objective is evaluate's
// stage/warm-up algebra, up to float ordering (which pruneSlack
// absorbs). A candidate whose lower bound exceeds an achievable time's
// selectBand can be neither the fastest plan nor inside the band.
// +Inf: c can build nothing.
//
// Both bounds range over a superset of the buildable points: x a
// positive multiple of wME, z of wMG, and y = TP·DP·pp for a divisor pp
// of the layer count at least ppFloor, with x + y + z <= n — so pp is
// also at most the largest divisor that leaves one granule each to the
// modality modules.
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

// build makes candidate i's plan at point p and scores it exactly.
func (sc *searchCtx) build(i int, p point) (*Plan, error) {
	c := sc.candidate(i)
	plan := &Plan{
		Strategy: "disttrain",
		Modules: [3]ModulePlan{
			{Module: model.Encoder, Config: parallel.Config{TP: c.WME, PP: 1, DP: p.x / c.WME, VPP: 1}, Replicated: true},
			{Module: model.Backbone, Config: parallel.Config{TP: c.TPLM, PP: p.pp, DP: c.DPLM, VPP: sc.vpp, SP: true}},
			{Module: model.Generator, Config: parallel.Config{TP: c.WMG, PP: 1, DP: p.z / c.WMG, VPP: 1}, Replicated: true},
		},
	}
	if err := sc.evaluate(plan); err != nil {
		return nil, err
	}
	return plan, nil
}
