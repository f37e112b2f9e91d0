package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
	// Seed, when non-nil, names a candidate to evaluate synchronously
	// before the parallel fan-out — typically the incumbent strategy of
	// a cached plan for a neighbouring spec. Its iteration time becomes
	// a fixed branch-and-bound bound for the whole search when Prune is
	// set; because the bound never moves after the fan-out starts,
	// prune decisions (and the Pruned count) are deterministic at any
	// parallelism. A seed outside the spec's strategy set is ignored.
	// Seeding never changes the chosen plan.
	Seed *Candidate
	// Seeds, when non-nil, gives PlanMany one seed per spec: Seeds[i]
	// seeds specs[i] (nil entries stay unseeded), overriding Seed. The
	// coalescing planner tier uses it to carry each fingerprint's own
	// incumbent through one batched PlanMany call.
	Seeds []*Candidate
	// Prune enables branch-and-bound pruning against the seed's
	// iteration time: subproblems whose convex lower bound provably
	// exceeds every selectable time are skipped before the expensive
	// water-fill. Conservative by construction — the returned plan is
	// byte-identical to the unpruned search.
	Prune bool
	// SampleBound switches each spec to the two-phase sample-bounded
	// search: phase 1 evaluates a deterministic stratified sample of the
	// strategy set (every sampleStride-th candidate, plus the seed)
	// without a bound; the fastest feasible sampled time then becomes a
	// fixed branch-and-bound bound for phase 2 over the remaining
	// candidates, pruning regardless of Prune. The bound is frozen at
	// the phase barrier, so prune counts stay deterministic at any
	// parallelism, and it is an achievable iteration time, so — exactly
	// like a seed bound — no pruned candidate can be the fastest plan or
	// enter selectPlan's tie-break band: the chosen plan is
	// byte-identical to the unsampled search.
	SampleBound bool
}

// seedFor resolves the seed for spec i: Seeds wins over Seed.
func (o SearchOptions) seedFor(i int) *Candidate {
	if o.Seeds != nil {
		if i < len(o.Seeds) {
			return o.Seeds[i]
		}
		return nil
	}
	return o.Seed
}

// sampleStride is the SampleBound phase-1 sampling interval. The
// enumeration order is (TP_lm, DP_lm)-major with 16 (w_me, w_mg)
// combinations innermost, so a stride of 8 lands two probes in every
// backbone shape's block — enough to bound each shape family tightly
// while evaluating only ~1/8th of the set unbounded.
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

// candidateIndex returns c's position in the enumeration, or -1 when c
// is not a member of the strategy set (a stale or cross-geometry seed).
func candidateIndex(cands []Candidate, c Candidate) int {
	for i, x := range cands {
		if x == c {
			return i
		}
	}
	return -1
}

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

// PlanDistTrainCtx is PlanDistTrain with cancellation and search
// tuning: it runs the §4.3 enumeration on a bounded worker pool and
// reduces deterministically, returning the same plan as the sequential
// reference regardless of parallelism. It is the one-spec case of
// PlanMany.
func PlanDistTrainCtx(ctx context.Context, s Spec, opts SearchOptions) (*Plan, error) {
	r := PlanMany(ctx, []Spec{s}, opts)[0]
	return r.Plan, r.Err
}

// PlanMany evaluates one orchestration problem per spec — the
// fleet-sweep / planning-as-a-service path: many cluster shapes or
// model configurations scored concurrently in a single call. All specs
// share one worker pool, so a sweep saturates the machine even when
// individual strategy spaces are small. Results are positional; each
// entry carries either the plan or that spec's own error, and the
// plans are byte-identical to planning each spec alone.
//
// On cancellation, specs whose strategy set was already fully
// evaluated still reduce to their (deterministic) plan; only specs
// with unevaluated candidates report the cancellation error.
func PlanMany(ctx context.Context, specs []Spec, opts SearchOptions) []PlanResult {
	out := make([]PlanResult, len(specs))

	// Per-spec search state; invalid specs fail fast and contribute no
	// work items.
	type search struct {
		ctx     searchCtx
		cands   []Candidate
		results []*Plan
		bound   float64      // fixed branch-and-bound bound (+Inf unless seeded)
		done    atomic.Int64 // candidates evaluated so far
		pruned  atomic.Int64 // candidates skipped by the bound
	}
	searches := make([]*search, len(specs))
	type job struct{ spec, cand int }
	var jobs []job    // bounded fan-out (the only fan-out without SampleBound)
	var sampled []job // SampleBound phase-1 jobs, evaluated unbounded
	for i := range specs {
		s := &specs[i]
		if err := s.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		se := &search{ctx: newSearchCtx(s), bound: math.Inf(1)}
		se.cands = se.ctx.strategySet()
		se.results = make([]*Plan, len(se.cands))
		searches[i] = se
		seed := opts.seedFor(i)
		seeded := -1
		if seed != nil {
			seeded = candidateIndex(se.cands, *seed)
		}
		if opts.SampleBound {
			// Phase-1 sample: the seed plus every sampleStride-th
			// candidate. Deterministic membership, so the phase-2 bound —
			// and every prune decision — is independent of parallelism.
			for c := range se.cands {
				if c == seeded || c%sampleStride == 0 {
					sampled = append(sampled, job{spec: i, cand: c})
				} else {
					jobs = append(jobs, job{spec: i, cand: c})
				}
			}
			continue
		}
		// A seed candidate is evaluated synchronously before the fan-out
		// so its iteration time is a FIXED bound for every worker — no
		// running best-so-far, hence deterministic prune counts.
		if seeded >= 0 && ctx.Err() == nil {
			plan, err := se.ctx.solveSubproblem(se.cands[seeded], math.Inf(1))
			if err == nil {
				se.results[seeded] = plan
				se.bound = plan.IterTime
			}
			se.done.Add(1)
			if opts.OnCandidate != nil {
				opts.OnCandidate(se.cands[seeded], plan, err)
			}
		} else {
			seeded = -1
		}
		for c := range se.cands {
			if c != seeded {
				jobs = append(jobs, job{spec: i, cand: c})
			}
		}
	}

	eval := func(specIdx, c int, bound float64) {
		se := searches[specIdx]
		plan, err := se.ctx.solveSubproblem(se.cands[c], bound)
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

	if opts.SampleBound {
		runWorkers(ctx, opts.workers(), len(sampled), func(j int) {
			eval(sampled[j].spec, sampled[j].cand, math.Inf(1))
		})
		// Phase barrier: the fastest feasible sampled time is each
		// spec's fixed phase-2 bound. It is achievable by construction,
		// so pruning against it is exactly as conservative as pruning
		// against a seed's iteration time.
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
	}

	runWorkers(ctx, opts.workers(), len(jobs), func(j int) {
		se := searches[jobs[j].spec]
		bound := math.Inf(1)
		if opts.Prune || opts.SampleBound {
			bound = se.bound
		}
		eval(jobs[j].spec, jobs[j].cand, bound)
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
	// Pruned counts candidates the branch-and-bound bound skipped;
	// always zero unless a seed (Seed or Seeds) and Prune were both
	// set, or SampleBound was.
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

// runWorkers evaluates eval(0..n-1) on a pool of the given size,
// handing out indices through an atomic cursor. It returns once every
// claimed index finishes; on context cancellation workers stop
// claiming and the remaining indices are never evaluated.
func runWorkers(ctx context.Context, workers, n int, eval func(i int)) {
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
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
