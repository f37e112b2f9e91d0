package orchestrator

import (
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
// with default options; call Search for per-candidate observation, and
// a PlanCache for reuse across specs.
func PlanDistTrain(s Spec) (*Plan, error) {
	return Search(s, SearchOptions{})
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

// noGrid says why the member of shape sh whose modality modules take
// widths tpSizes[t[j]] has no buildable point, or returns nil; it also
// classifies the members of a shape the search never expanded. A
// member that passes can build at least its lower bounds: the
// memory-floor PP and the fewest GPUs at which each modality module
// fits.
func (sc *searchCtx) noGrid(sh *shape, t [2]int) error {
	if sh.k < 1 {
		return errNoMicrobatch
	}
	if sh.err != nil {
		return sh.err
	}
	if sc.lo[0][t[0]]+sh.tp*sh.dp*sh.floor+sc.lo[1][t[1]] > sc.n {
		return errLowerExceedsBudget
	}
	return nil
}

// blockBound lower-bounds every member of shape block b without
// building their grids: it is grid.bound on one grid that holds every
// member's points, each modality module's stage-time numerator the
// minimum over the widths, and both on width tpSizes[0] (which divides
// every other) from its floors, the lowest.
// Square roots, sums, products and quotients of IEEE floats are
// monotone in their operands, and every member's PPs, x caps and z
// caps lie within this grid's, so the bound is at most each member's
// grid.bound, exactly. +Inf: no member has a buildable point.
func (sc *searchCtx) blockBound(b int) float64 {
	sh := &sc.shapes[b]
	if sh.err != nil || sh.k < 1 {
		return math.Inf(1)
	}
	num := [2]float64{math.Inf(1), math.Inf(1)}
	for t := range sc.tpSizes {
		for j, mod := range model.Modalities {
			num[j] = min(num[j], sc.stageNum(sh, mod, t))
		}
	}
	g := sc.newGrid(sh, [2]int{}, num)
	return g.bound()
}

// solveCandidate solves the strategy set's i-th candidate exactly: its
// grid and the plan at its fastest buildable point.
func (sc *searchCtx) solveCandidate(i int) (solvedPlan, error) {
	g, err := sc.gridFor(i)
	if err != nil {
		return solvedPlan{}, err
	}
	plan, err := sc.build(i, g.fastest())
	return solvedPlan{i, g, plan}, err
}

// build makes candidate i's plan at point p and scores it exactly.
func (sc *searchCtx) build(i int, p point) (*Plan, error) {
	sh, t := sc.member(i)
	plan := &Plan{Strategy: "disttrain"}
	plan.Modules[model.Backbone].Config = parallel.Config{TP: sh.tp, PP: p.pp, DP: sh.dp, VPP: sc.vpp, SP: true}
	for j, mod := range model.Modalities {
		w := sc.tpSizes[t[j]]
		plan.Modules[mod].Config = parallel.Config{TP: w, PP: 1, DP: p.xz[j] / w, VPP: 1}
	}
	if err := sc.evaluate(plan); err != nil {
		return nil, err
	}
	return plan, nil
}
