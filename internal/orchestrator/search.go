package orchestrator

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"disttrain/internal/fanout"
	"disttrain/internal/parallel"
)

// This file is the parallel plan-search engine behind PlanDistTrain.
// The §4.3 adaptive algorithm is embarrassingly parallel: the strategy
// set is finite and every (TP_lm, DP_lm, w_me, w_mg) combination
// collapses to an independent convex subproblem. The engine splits
// candidate generation from evaluation — a deterministic candidate
// list feeds a bounded worker pool, results land in per-candidate
// slots, and a sequential reduce applies the selectPlan tie-breaking
// over the slots in enumeration order. Because each candidate is
// evaluated independently (no cross-candidate floating-point
// reduction) and the reduce order is fixed, the parallel search
// returns a plan byte-identical to the sequential reference at any
// parallelism level.

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
	// Parallelism bounds the evaluation worker pool; values < 1 mean
	// GOMAXPROCS. The chosen plan is independent of this value.
	Parallelism int
	// OnCandidate, when non-nil, observes every evaluated candidate:
	// plan is non-nil for feasible combinations, err explains
	// infeasible ones (pruned candidates report ErrCandidatePruned).
	// It is invoked from worker goroutines and must be safe for
	// concurrent use. Under a PlanCache it runs under the cache's lock
	// and must not call back into the cache.
	OnCandidate func(c Candidate, plan *Plan, err error)
}

// sampleStride is the phase-1 probing interval. The enumeration order
// is (TP_lm, DP_lm)-major with 16 (w_me, w_mg) combinations innermost,
// so a stride of 8 lands two probes in every backbone shape's block.
// A probe skips the refine, so probing every shape costs about as much
// as solving a handful of candidates.
const sampleStride = 8

func (o SearchOptions) workers() int {
	if o.Parallelism >= 1 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
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
// this order, so both the sequential reference and the parallel reduce
// must honour it.
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

// Search runs the §4.3 search for one spec — PlanDistTrain with
// cancellation, a custom worker count and per-candidate observation.
func Search(ctx context.Context, s Spec, opts SearchOptions) (*Plan, error) {
	plan, _, _, err := search(ctx, s, nil, opts)
	return plan, err
}

// search is the engine: one spec's two-phase branch-and-bound. Phase
// 1 probes every sampleStride-th candidate — the plan built from its
// water-fill seed, without the refine — then fully solves the seed and
// the fastest probe (the next-fastest when that solve fails). The
// fastest of those solved plans is frozen as the bound, and phase 2
// solves every other candidate, probed ones included, skipping each
// whose lower bound provably exceeds every selectable time. The bound
// is the time of a plan the sequential reference also produces, so no
// pruned candidate can be the fastest plan or enter selectPlan's
// tie-break band: the plan is byte-identical to the tests' sequential
// reference, one unpruned solve per candidate.
// Probes are ranked after their barrier with a lowest-index tie-break,
// and the bound never moves after phase 1, so prune decisions (and the
// pruned count) are the same at any parallelism.
//
// seed, typically the incumbent strategy of a cached plan for a
// neighbouring spec, only ever tightens the bound; a seed outside the
// spec's strategy set is ignored. It returns the plan or the spec's
// error, the number of candidates the bound skipped, and the bound
// itself (for tests). A search cancelled before every candidate was
// evaluated reports the cancellation; one that finished still reduces
// to its (deterministic) plan.
func search(ctx context.Context, s Spec, seed *Candidate, opts SearchOptions) (*Plan, int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, 0, err
	}
	sc := newSearchCtx(&s)
	cands := sc.strategySet()
	results := make([]*Plan, len(cands))
	// probeTime holds every sampleStride-th candidate's probe time, +Inf
	// where the probe built nothing; first the candidates phase 1
	// solved: the seed, then probes in time order.
	probeTime := make([]float64, (len(cands)+sampleStride-1)/sampleStride)
	var first []int
	if seed != nil {
		if c := slices.Index(cands, *seed); c >= 0 {
			first = append(first, c)
		}
	}
	bound := math.Inf(1) // fixed after phase 1
	var done, pruned atomic.Int64

	// solve evaluates one candidate against the current bound.
	solve := func(c int) {
		plan, err := sc.solveSubproblem(cands[c], bound, true)
		if err == nil {
			results[c] = plan
		} else if errors.Is(err, ErrCandidatePruned) {
			pruned.Add(1)
		}
		done.Add(1)
		if opts.OnCandidate != nil {
			opts.OnCandidate(cands[c], plan, err)
		}
	}

	// Probes are not candidates' evaluations: they fill no result slot
	// and are not reported to OnCandidate.
	fanout.Run(ctx, opts.workers(), len(probeTime), func(k int) {
		t := math.Inf(1)
		if plan, err := sc.solveSubproblem(cands[k*sampleStride], math.Inf(1), false); err == nil {
			t = plan.IterTime
		}
		probeTime[k] = t
	})
	// Phase 1: solve the seed, then the probed candidates fastest first
	// until one yields a plan.
	if len(first) > 0 && ctx.Err() == nil {
		solve(first[0])
	}
	order := make([]int, 0, len(probeTime))
	for k, t := range probeTime {
		if !math.IsInf(t, 1) {
			order = append(order, k)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(probeTime[a], probeTime[b])
	})
	for _, k := range order {
		if ctx.Err() != nil {
			break
		}
		c := k * sampleStride
		if !slices.Contains(first, c) {
			first = append(first, c)
			solve(c)
		}
		if results[c] != nil {
			break
		}
	}
	// Phase barrier: the fastest plan phase 1 solved is the fixed
	// phase-2 bound.
	for _, c := range first {
		if p := results[c]; p != nil && p.IterTime < bound {
			bound = p.IterTime
		}
	}
	fanout.Run(ctx, opts.workers(), len(cands), func(c int) {
		if !slices.Contains(first, c) {
			solve(c)
		}
	})

	// A late cancellation must not discard a search that already
	// finished.
	if int(done.Load()) != len(cands) {
		return nil, 0, bound, fmt.Errorf("orchestrator: plan search cancelled: %w", ctx.Err())
	}
	plan, err := reducePlans(results)
	return plan, int(pruned.Load()), bound, err
}

// reducePlans applies the selectPlan tie-breaking over the feasible
// result slots in enumeration order — the deterministic reduce that
// makes the parallel search equivalent to the sequential loop. It must
// not mutate any candidate (solveSubproblem already stamps Strategy):
// OnCandidate observers may have retained these pointers.
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
