package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the plan-search engine behind PlanDistTrain: a
// sequential best-first branch-and-bound over the §4.3 strategy set.
// Every (TP_lm, DP_lm, w_me, w_mg) combination is an independent
// integer allocation problem, its grid, with a cheap lower bound
// (grid.bound), so the engine solves candidates in lower-bound order
// and stops once the next bound lies beyond §7.1's tie-break band
// around the fastest plan solved so far. The search has two levels: a
// backbone shape (TP_lm, DP_lm) enters the heap as one key whose bound
// is below every one of its candidates', and only a shape popped under
// the stop line has its candidates' grids and bounds built. A
// sequential reduce then applies §7.1's rule over the solved
// candidates' points in enumeration order. Every candidate that can
// hold the fastest plan or a point in the band is solved, and each
// exactly, so the search returns a plan byte-identical to the
// sequential reference and to brute force over every buildable point.

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
	// combinations, err explains infeasible ones. The candidates of a
	// shape the search expanded are reported as it expands and solves
	// them; candidates the bound skipped, and every candidate of a shape
	// it never expanded, are reported after the last solve (pruned ones
	// with ErrCandidatePruned, the rest with their infeasibility error).
	// Under a PlanCache it runs under the cache's lock and must not
	// call back into the cache.
	OnCandidate func(c Candidate, plan *Plan, err error)
}

var errNoFeasiblePlan = errors.New("orchestrator: no feasible plan (cluster too small for the model)")

// ErrCandidatePruned marks a strategy combination skipped by the
// branch-and-bound bound: its lower bound proved it can neither hold
// the fastest plan nor a point in §7.1's tie-break band. Reported
// to OnCandidate observers in place of an infeasibility error.
var ErrCandidatePruned = errors.New("orchestrator: candidate pruned by search bound")

// Search runs the §4.3 search for one spec — PlanDistTrain with
// cancellation and per-candidate observation.
func Search(ctx context.Context, s Spec, opts SearchOptions) (*Plan, error) {
	return search(ctx, s, nil, opts)
}

// boundKey is one candidate's or shape's place in the search's
// best-first order: its lower bound, ties broken by i — a candidate's
// enumeration index, or ^b for shape block b, so a shape pops before
// the candidates on an equal bound.
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

// push adds a key.
func (h *boundHeap) push(k boundKey) {
	*h = append(*h, k)
	for j := len(*h) - 1; j > 0; {
		p := (j - 1) / 2
		if !(*h)[j].less((*h)[p]) {
			return
		}
		(*h)[j], (*h)[p] = (*h)[p], (*h)[j]
		j = p
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

// search is the engine: it validates the spec and runs one
// best-first search over it, reporting to opts.OnCandidate.
func search(ctx context.Context, s Spec, seed *Candidate, opts SearchOptions) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var r bestFirst
	return r.run(ctx, &s, seed, opts.OnCandidate)
}

// bestFirst is one search's state.
type bestFirst struct {
	sc       searchCtx
	obs      func(Candidate, *Plan, error)
	h        boundHeap
	solved   []solvedPlan // in solve order
	best     float64      // the fastest solved time
	seedAt   int          // the seed's index once solved, else -1
	expanded int          // shapes popped and expanded
}

// run is one spec's two-level best-first branch-and-bound, observed
// by obs when non-nil. The heap starts with one key per backbone
// shape, its blockBound. The seed is solved first; then keys pop until
// the next bound exceeds the fastest solved time·selectBand·(1+pruneSlack).
// A popped shape is expanded (its candidates without a grid are
// reported, the others pushed by lower bound), a popped candidate is
// solved exactly. A shape's bound is ≤ its candidates' and pops first
// on a tie, so candidates pop in the (lower bound, index) order of a
// heap holding them all. Bounds only rise along the pops and the
// fastest time only falls, so every candidate whose bound lies under
// the final stop line is solved: in particular the fastest plan and
// every candidate with a point in the tie-break band, so the plan is
// byte-identical to the tests' sequential reference. What is left in
// the heap is pruned, and reported as such to obs.
//
// seed, typically the incumbent strategy of a cached plan for a
// neighbouring spec, is solved first and at most once; a seed outside
// the spec's strategy set is ignored. It cannot change which other
// candidates are solved: the stop line ends where the fastest plan
// puts it, so a seed outside the band costs one extra solve.
// A search cancelled before it reached the stop line reports the
// cancellation; one that finished still reduces to its
// (deterministic) plan.
func (r *bestFirst) run(ctx context.Context, s *Spec, seed *Candidate, obs func(Candidate, *Plan, error)) (*Plan, error) {
	*r = bestFirst{sc: newSearchCtx(s), obs: obs, best: math.Inf(1), seedAt: -1}
	r.sc.strategySet()
	r.h = make(boundHeap, len(r.sc.shapes), 2*len(r.sc.shapes))
	r.solved = make([]solvedPlan, 0, len(r.sc.tpSizes)*len(r.sc.tpSizes))
	for b := range r.sc.shapes {
		r.h[b] = boundKey{r.sc.blockBound(b), ^b}
	}
	for j := len(r.h)/2 - 1; j >= 0; j-- {
		r.h.down(j)
	}
	if seed != nil {
		if i := r.sc.indexOf(*seed); i >= 0 {
			if _, err := r.sc.gridFor(i); err == nil {
				r.seedAt = i
				r.solve(i)
			}
		}
	}
	for len(r.h) > 0 && !(r.h[0].lb > r.best*selectBand*(1+pruneSlack)) {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("orchestrator: plan search cancelled: %w", ctx.Err())
		}
		if k := r.h.pop(); k.i < 0 {
			r.expand(^k.i)
			r.expanded++
		} else {
			r.solve(k.i)
		}
	}
	if r.obs != nil {
		r.prune()
	}
	return r.sc.reducePlans(r.solved)
}

// solvedPlan is a feasible candidate's enumeration index, grid and
// plan at its fastest point.
type solvedPlan struct {
	i    int
	g    grid
	plan *Plan
}

func (r *bestFirst) report(i int, plan *Plan, err error) {
	if r.obs != nil {
		r.obs(r.sc.candidate(i), plan, err)
	}
}

// solve solves candidate i exactly and reports it.
func (r *bestFirst) solve(i int) {
	sp, err := r.sc.solveCandidate(i)
	if err == nil {
		r.solved = append(r.solved, sp)
		r.best = min(r.best, sp.plan.IterTime)
	}
	r.report(i, sp.plan, err)
}

// expand builds shape block b's grids: it reports the members without
// one and pushes the others by their grid's bound. The seed, already
// solved, is skipped.
func (r *bestFirst) expand(b int) {
	bs := len(r.sc.tpSizes) * len(r.sc.tpSizes)
	for i := b * bs; i < (b+1)*bs; i++ {
		if i == r.seedAt {
			continue
		}
		g, err := r.sc.gridFor(i)
		if err != nil {
			r.report(i, nil, err)
			continue
		}
		r.h.push(boundKey{g.bound(), i})
	}
}

// prune reports to the observer what the search left in the heap: a
// candidate key is pruned, and so is each member of an unexpanded
// shape that passes noGrid's integer checks; the other members are
// reported with the error those checks give.
func (r *bestFirst) prune() {
	for _, k := range r.h {
		if k.i >= 0 {
			r.report(k.i, nil, ErrCandidatePruned)
			continue
		}
		sh := &r.sc.shapes[^k.i]
		i := ^k.i * len(r.sc.tpSizes) * len(r.sc.tpSizes)
		for me := range r.sc.tpSizes {
			for mg := range r.sc.tpSizes {
				if i != r.seedAt {
					err := r.sc.noGrid(sh, me, mg)
					if err == nil {
						err = ErrCandidatePruned
					}
					r.report(i, nil, err)
				}
				i++
			}
		}
	}
}

// reducePlans is §7.1's rule over every buildable point of the solved
// candidates: with T* the fastest solved time, the fewest GPUs among
// points at most T*·selectBand, ties to the faster and then to the
// first in enumeration order — candidate, then PP, x and z. A candidate
// the search pruned has no point in that band, and neither has a solved
// one whose fastest point lies outside it. The winner's plan is built
// anew: a solved plan is never mutated, since OnCandidate observers may
// have retained it.
func (sc *searchCtx) reducePlans(solved []solvedPlan) (*Plan, error) {
	if len(solved) == 0 {
		return nil, errNoFeasiblePlan
	}
	slices.SortFunc(solved, func(a, b solvedPlan) int { return a.i - b.i })
	limit := math.Inf(1)
	for _, sp := range solved {
		limit = min(limit, sp.plan.IterTime)
	}
	limit *= selectBand
	var win point
	winI, winGPUs := -1, 0
	for _, sp := range solved {
		if sp.plan.IterTime > limit {
			continue
		}
		p := sp.g.fewest(limit)
		if n := sp.g.gpus(p); winI < 0 || n < winGPUs || (n == winGPUs && p.t < win.t) {
			win, winI, winGPUs = p, sp.i, n
		}
	}
	return sc.build(winI, win)
}
