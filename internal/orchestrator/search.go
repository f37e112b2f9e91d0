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
	// concurrent use.
	OnCandidate func(c Candidate, plan *Plan, err error)
}

// PlanRequest is one PlanMany problem: the spec to plan and,
// optionally, a candidate to evaluate in the search's first phase —
// typically the incumbent strategy of a cached plan for a neighbouring
// spec. A seed only ever tightens the search bound; it never changes
// the chosen plan, and a seed outside the spec's strategy set is
// ignored.
type PlanRequest struct {
	Spec Spec
	Seed *Candidate
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

// PlanMany is the engine's one entry point: it evaluates one
// orchestration problem per request — a single plan, a fleet sweep, a
// planner wave — on one shared worker pool, so a sweep saturates the
// machine even when individual strategy spaces are small. Results are
// positional; each entry carries either the plan or that request's own
// error.
//
// Every search is the same two-phase branch-and-bound. Phase 1 probes
// every sampleStride-th candidate — the plan built from its water-fill
// seed, without the refine — then fully solves the request's seed and
// the fastest probe (the next-fastest when that solve fails). The
// fastest of those solved plans is frozen as that spec's bound, and
// phase 2 solves every other candidate, probed ones included, skipping
// each whose lower bound provably exceeds every selectable time. The
// bound is the time of a plan the sequential reference also produces,
// so no pruned candidate can be the fastest plan or enter selectPlan's
// tie-break band: plans are byte-identical to the tests' sequential
// reference, one unpruned solve per candidate.
// Probes are ranked after their barrier with a lowest-index tie-break,
// and the bound never moves after phase 1 and depends on the request
// alone, so prune decisions (and the Pruned count) are the same at any
// parallelism and whether a spec is planned alone or batched.
//
// On cancellation, specs whose strategy set was already fully
// evaluated still reduce to their (deterministic) plan; only specs
// with unevaluated candidates report the cancellation error.
func PlanMany(ctx context.Context, reqs []PlanRequest, opts SearchOptions) []PlanResult {
	out := make([]PlanResult, len(reqs))

	// Per-spec search state; invalid specs fail fast and contribute no
	// work items.
	type search struct {
		ctx       searchCtx
		cands     []Candidate
		results   []*Plan
		probeTime []float64    // probe time of every sampleStride-th candidate, +Inf if it built nothing
		first     []int        // candidates phase 1 solved: the seed, then probes in time order
		bound     float64      // +Inf until phase 1 is solved, fixed after it
		done      atomic.Int64 // candidates evaluated so far
		pruned    atomic.Int64 // candidates skipped by the bound
	}
	searches := make([]*search, len(reqs))
	type job struct{ spec, cand int }
	var probes []job
	for i := range reqs {
		s := &reqs[i].Spec
		if err := s.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		se := &search{ctx: newSearchCtx(s), bound: math.Inf(1)}
		se.cands = se.ctx.strategySet()
		se.results = make([]*Plan, len(se.cands))
		se.probeTime = make([]float64, (len(se.cands)+sampleStride-1)/sampleStride)
		searches[i] = se
		if seed := reqs[i].Seed; seed != nil {
			// A stale or cross-geometry seed is not in the set: ignored.
			if c := slices.Index(se.cands, *seed); c >= 0 {
				se.first = append(se.first, c)
			}
		}
		for c := 0; c < len(se.cands); c += sampleStride {
			probes = append(probes, job{spec: i, cand: c})
		}
	}

	// solve evaluates one candidate against its spec's current bound.
	solve := func(se *search, c int) {
		plan, err := se.ctx.solveSubproblem(se.cands[c], se.bound, true)
		if err == nil {
			se.results[c] = plan
		} else if errors.Is(err, ErrCandidatePruned) {
			se.pruned.Add(1)
		}
		se.done.Add(1)
		if opts.OnCandidate != nil {
			opts.OnCandidate(se.cands[c], plan, err)
		}
	}

	// Probes are not candidates' evaluations: they fill no result slot
	// and are not reported to OnCandidate.
	fanout.Run(ctx, opts.workers(), len(probes), func(j int) {
		se := searches[probes[j].spec]
		t := math.Inf(1)
		if plan, err := se.ctx.solveSubproblem(se.cands[probes[j].cand], math.Inf(1), false); err == nil {
			t = plan.IterTime
		}
		se.probeTime[probes[j].cand/sampleStride] = t
	})
	// Phase 1, one job per spec: solve the seed, then the probed
	// candidates fastest first until one yields a plan.
	fanout.Run(ctx, opts.workers(), len(searches), func(i int) {
		se := searches[i]
		if se == nil {
			return
		}
		for _, c := range se.first {
			solve(se, c)
		}
		order := make([]int, 0, len(se.probeTime))
		for k, t := range se.probeTime {
			if !math.IsInf(t, 1) {
				order = append(order, k)
			}
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(se.probeTime[a], se.probeTime[b])
		})
		for _, k := range order {
			if ctx.Err() != nil {
				return
			}
			c := k * sampleStride
			if !slices.Contains(se.first, c) {
				se.first = append(se.first, c)
				solve(se, c)
			}
			if se.results[c] != nil {
				break
			}
		}
	})
	// Phase barrier: the fastest plan phase 1 solved is each spec's
	// fixed phase-2 bound.
	var rest []job
	for i, se := range searches {
		if se == nil {
			continue
		}
		for _, c := range se.first {
			if p := se.results[c]; p != nil && p.IterTime < se.bound {
				se.bound = p.IterTime
			}
		}
		out[i].bound = se.bound
		for c := range se.cands {
			if !slices.Contains(se.first, c) {
				rest = append(rest, job{spec: i, cand: c})
			}
		}
	}
	fanout.Run(ctx, opts.workers(), len(rest), func(j int) {
		solve(searches[rest[j].spec], rest[j].cand)
	})

	for i, se := range searches {
		if se == nil {
			continue // spec failed validation above
		}
		// A spec reduces iff every candidate slot was filled; a late
		// cancellation must not discard a search that already finished.
		if int(se.done.Load()) != len(se.cands) {
			out[i].Err = fmt.Errorf("orchestrator: plan search cancelled: %w", ctx.Err())
			continue
		}
		out[i].Plan, out[i].Err = reducePlans(se.results)
		out[i].Pruned = int(se.pruned.Load())
	}
	return out
}

// PlanResult is one PlanMany outcome: exactly one of Plan and Err is
// set.
type PlanResult struct {
	Plan *Plan
	Err  error
	// Pruned counts candidates the phase-2 bound skipped.
	Pruned int
	bound  float64 // the phase-2 bound, for tests
}

// CandidateCount returns the size of a spec's §4.3 strategy set — the
// number of subproblems a cold search must cover. The fleet runtime's
// costed planning-latency model divides it by a per-round budget to
// derive a deterministic plan-landing round. Invalid specs count zero.
func CandidateCount(s Spec) int {
	if s.Validate() != nil {
		return 0
	}
	return len(enumerateCandidates(s, s.maxGPUs()))
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
