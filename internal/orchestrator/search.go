package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"math"

	"disttrain/internal/parallel"
)

// This file is the plan-search engine behind PlanDistTrain: a
// sequential best-first branch-and-bound over the §4.3 strategy set.
// Every (TP_lm, DP_lm, w_me, w_mg) combination collapses to an
// independent convex subproblem with a cheap lower bound, so the engine
// solves candidates in lower-bound order and stops once the next bound
// lies beyond selectPlan's tie-break band around the fastest plan
// solved so far. A sequential reduce applies the selectPlan
// tie-breaking over the solved plans in enumeration order. Every
// candidate that can be the fastest plan or enter the band is solved,
// and each is solved exactly as the sequential reference solves it, so
// the search returns a plan byte-identical to that reference.

// Candidate is one strategy combination of the §4.3 enumeration:
// the backbone's tensor- and data-parallel sizes plus the encoder and
// generator group widths.
type Candidate struct {
	TPLM, DPLM, WME, WMG int
}

func (c Candidate) String() string {
	return fmt.Sprintf("tp_lm=%d dp_lm=%d w_me=%d w_mg=%d", c.TPLM, c.DPLM, c.WME, c.WMG)
}

// SearchOptions tunes the plan-search engine.
type SearchOptions struct {
	// Parallelism is inert (ignored): a search solves its candidates
	// on the caller's goroutine. Kept only for benchmark/ until a later
	// benchmark change deletes it.
	Parallelism int
	// OnCandidate, when non-nil, observes every enumerated candidate
	// once, on the caller's goroutine: plan is non-nil for feasible
	// combinations, err explains infeasible ones. Candidates the bound
	// skipped are reported with ErrCandidatePruned after the last
	// solve. Under a PlanCache it runs under the cache's lock and must
	// not call back into the cache.
	OnCandidate func(c Candidate, plan *Plan, err error)
}

var errNoFeasiblePlan = errors.New("orchestrator: no feasible plan (cluster too small for the model)")

// ErrCandidatePruned marks a strategy combination skipped by the
// branch-and-bound bound: its convex lower bound proved it can neither
// be the fastest plan nor enter selectPlan's tie-break band. Reported
// to OnCandidate observers in place of an infeasibility error.
var ErrCandidatePruned = errors.New("orchestrator: candidate pruned by search bound")

// enumerateCandidates materialises the finite strategy set in the
// deterministic order of the original nested-loop enumeration. The
// order is load-bearing: selectPlan's tie-breaking scans candidates in
// this order, so both the sequential reference and the search's reduce
// must honour it. Each backbone shape (TP_lm, DP_lm) owns one block of
// len(tpSizes)² consecutive candidates.
func enumerateCandidates(s Spec, n int) []Candidate {
	tpSizes := parallel.TPSizes(s.Cluster.GPUsPerNode)
	dps := make([][]int, len(tpSizes))
	size := 0
	for i, tpLM := range tpSizes {
		dps[i] = dpCandidates(s, tpLM, n)
		size += len(dps[i]) * len(tpSizes) * len(tpSizes)
	}
	out := make([]Candidate, 0, size)
	for i, tpLM := range tpSizes {
		for _, dpLM := range dps[i] {
			for _, wME := range tpSizes {
				for _, wMG := range tpSizes {
					out = append(out, Candidate{TPLM: tpLM, DPLM: dpLM, WME: wME, WMG: wMG})
				}
			}
		}
	}
	return out
}

// Search runs the §4.3 search for one spec — PlanDistTrain with
// cancellation and per-candidate observation.
func Search(ctx context.Context, s Spec, opts SearchOptions) (*Plan, error) {
	plan, _, _, err := search(ctx, s, nil, opts)
	return plan, err
}

// boundKey is one candidate's place in the search's best-first order:
// its lower bound, ties broken by enumeration index.
type boundKey struct {
	lb float64
	i  int
}

func (a boundKey) less(b boundKey) bool {
	return a.lb < b.lb || (a.lb == b.lb && a.i < b.i)
}

// boundHeap is a binary min-heap of boundKeys.
type boundHeap []boundKey

// down restores the heap property below position j.
func (h boundHeap) down(j int) {
	for {
		l := 2*j + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			l = r
		}
		if !h[l].less(h[j]) {
			return
		}
		h[j], h[l] = h[l], h[j]
		j = l
	}
}

// pop removes and returns the smallest key.
func (h *boundHeap) pop() boundKey {
	old := *h
	top, last := old[0], len(old)-1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return top
}

// search is the engine: one spec's best-first branch-and-bound. It
// enumerates the strategy set once, reporting every candidate without
// a subproblem, and heapifies the others by (lower bound, enumeration
// index). It solves the seed first, then pops candidates in that order
// and solves each in full — water-fill, refine, build — until the next
// lower bound exceeds the fastest solved time·selectBand·(1+pruneSlack).
// Bounds only rise along the pops and the fastest time only falls, so
// every candidate whose bound lies under the final stop line is solved:
// in particular the fastest plan and every member of selectPlan's
// tie-break band, so the plan is byte-identical to the tests'
// sequential reference. The candidates left in the heap are pruned.
//
// seed, typically the incumbent strategy of a cached plan for a
// neighbouring spec, is solved first and at most once; a seed outside
// the spec's strategy set is ignored. It cannot change which other
// candidates are solved: the stop line ends where the fastest plan
// puts it, so a seed outside the band costs one extra solve.
// It returns the plan or the spec's error, the number of candidates
// that had a subproblem but were never solved, and the fastest solved
// time (for tests). A search cancelled before it reached the stop line
// reports the cancellation; one that finished still reduces to its
// (deterministic) plan.
func search(ctx context.Context, s Spec, seed *Candidate, opts SearchOptions) (*Plan, int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, 0, err
	}
	sc := newSearchCtx(&s)
	cands := sc.strategySet()
	results := make([]*Plan, len(cands))
	report := func(c int, plan *Plan, err error) {
		if opts.OnCandidate != nil {
			opts.OnCandidate(cands[c], plan, err)
		}
	}
	best := math.Inf(1)
	solve := func(c int) {
		plan, err := sc.solveSubproblem(c)
		if err == nil {
			results[c] = plan
			best = min(best, plan.IterTime)
		}
		report(c, plan, err)
	}

	// seedAt is the seed's index once its subproblem exists: the one
	// candidate solved out of order, which the heap must then skip.
	seedAt := -1
	h := make(boundHeap, 0, len(cands))
	for c := range cands {
		sub, ppFloor, err := sc.subproblemFor(c)
		if err != nil {
			report(c, nil, err)
			continue
		}
		if seed != nil && cands[c] == *seed {
			seedAt = c
		}
		h = append(h, boundKey{sc.lowerBound(cands[c], &sub, ppFloor), c})
	}
	for j := len(h)/2 - 1; j >= 0; j-- {
		h.down(j)
	}
	if seedAt >= 0 {
		solve(seedAt)
	}
	for len(h) > 0 && !(h[0].lb > best*selectBand*(1+pruneSlack)) {
		if ctx.Err() != nil {
			return nil, 0, best, fmt.Errorf("orchestrator: plan search cancelled: %w", ctx.Err())
		}
		if k := h.pop(); k.i != seedAt {
			solve(k.i)
		}
	}
	pruned := 0
	for _, k := range h {
		if k.i != seedAt {
			pruned++
			report(k.i, nil, ErrCandidatePruned)
		}
	}
	plan, err := reducePlans(results)
	return plan, pruned, best, err
}

// reducePlans applies the selectPlan tie-breaking over the feasible
// result slots in enumeration order — the deterministic reduce that
// makes the best-first search equivalent to the sequential loop. It
// must not mutate any candidate (solveSubproblem already stamps
// Strategy): OnCandidate observers may have retained these pointers.
func reducePlans(results []*Plan) (*Plan, error) {
	feasible := make([]*Plan, 0, len(results))
	for _, p := range results {
		if p != nil {
			feasible = append(feasible, p)
		}
	}
	if len(feasible) == 0 {
		return nil, errNoFeasiblePlan
	}
	return selectPlan(feasible), nil
}
