package orchestrator

import (
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

// sampleStride is the phase-1 sampling interval. The enumeration order
// is (TP_lm, DP_lm)-major with 16 (w_me, w_mg) combinations innermost,
// so a stride of 8 lands two probes in every backbone shape's block —
// enough to bound each shape family tightly while evaluating only
// ~1/8th of the set unbounded.
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
// Every search is the same two-phase branch-and-bound. Phase 1
// evaluates a deterministic stratified sample of the strategy set —
// every sampleStride-th candidate, plus the request's seed — without a
// bound. The fastest feasible phase-1 time is then frozen as that
// spec's bound, and phase 2 skips every remaining subproblem whose
// convex lower bound provably exceeds every selectable time before the
// expensive water-fill. The bound is an achievable iteration time, so
// no pruned candidate can be the fastest plan or enter selectPlan's
// tie-break band: plans are byte-identical to PlanDistTrainSequential.
// It never moves after the phase barrier and depends on the request
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
		ctx     searchCtx
		cands   []Candidate
		results []*Plan
		bound   float64      // +Inf until the phase barrier, fixed after it
		done    atomic.Int64 // candidates evaluated so far
		pruned  atomic.Int64 // candidates skipped by the bound
	}
	searches := make([]*search, len(reqs))
	type job struct{ spec, cand int }
	var sampled, rest []job // phase 1, phase 2
	for i := range reqs {
		s := &reqs[i].Spec
		if err := s.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		se := &search{ctx: newSearchCtx(s), bound: math.Inf(1)}
		se.cands = se.ctx.strategySet()
		se.results = make([]*Plan, len(se.cands))
		searches[i] = se
		seeded := -1 // stays -1 for a stale or cross-geometry seed
		if seed := reqs[i].Seed; seed != nil {
			seeded = slices.Index(se.cands, *seed)
		}
		for c := range se.cands {
			if c == seeded || c%sampleStride == 0 {
				sampled = append(sampled, job{spec: i, cand: c})
			} else {
				rest = append(rest, job{spec: i, cand: c})
			}
		}
	}

	// run evaluates one phase's jobs against each spec's current bound.
	run := func(jobs []job) {
		fanout.Run(ctx, opts.workers(), len(jobs), func(j int) {
			se := searches[jobs[j].spec]
			c := se.cands[jobs[j].cand]
			plan, err := se.ctx.solveSubproblem(c, se.bound)
			if err == nil {
				se.results[jobs[j].cand] = plan
			} else if errors.Is(err, ErrCandidatePruned) {
				se.pruned.Add(1)
			}
			se.done.Add(1)
			if opts.OnCandidate != nil {
				opts.OnCandidate(c, plan, err)
			}
		})
	}

	run(sampled)
	// Phase barrier: the fastest feasible sampled time is each spec's
	// fixed phase-2 bound.
	for _, se := range searches {
		if se == nil {
			continue
		}
		for _, p := range se.results {
			if p != nil && p.IterTime < se.bound {
				se.bound = p.IterTime
			}
		}
	}
	run(rest)

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
