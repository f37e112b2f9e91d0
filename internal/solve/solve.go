// Package solve is a miniature disciplined-convex toolkit standing in
// for the CVX solver the paper uses (§6: "formulates the disaggregated
// model orchestration problem using Disciplined Convex Programming
// [and] employs the CVX solver"). Its one solver water-fills the
// continuous relaxation of the §4.3 subproblem — minimise a max of
// c_i/x_i terms over a capped simplex with lower bounds — exactly.
//
// The planner no longer calls it: the orchestrator solves each
// candidate exactly over the integers, which is cheaper than relaxing
// and rounding. Its only caller is benchmark/'s solve.waterfill_us
// ledger line; the package goes when that line does.
//
// Reentrancy: Solve is a pure function of its receiver — a value
// receiver, no package-level mutable state, a fresh output slice on
// every call — so it may run concurrently with itself.
// TestSolveReentrancy pins this under the race detector.
package solve

import (
	"errors"
	"fmt"
	"math"
)

// bisect finds the smallest t in [lo, hi] with feasible(t) == true, to
// a relative 1e-12, assuming feasibility is monotone (false below the
// threshold, true above). It returns an error if feasible(hi) is false.
func bisect(lo, hi float64, feasible func(float64) bool) (float64, error) {
	const tol = 1e-12
	if lo > hi {
		return 0, fmt.Errorf("solve: empty interval [%g,%g]", lo, hi)
	}
	if !feasible(hi) {
		return 0, errors.New("solve: infeasible at upper bound")
	}
	if feasible(lo) {
		return lo, nil
	}
	for hi-lo > tol*math.Max(1, math.Abs(hi)) {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// WaterFillProblem is the simplified convex subproblem of §4.3:
//
//	minimise   max_i ( Weights[i] / x_i )
//	subject to sum_i x_i <= Budget
//	           x_i >= Lower[i]
//
// Weights are the per-module steady-phase coefficients
// (DP*TP*M*C(TP) in the paper's notation); x_i are GPU allocations.
type WaterFillProblem struct {
	Weights []float64 // strictly positive
	Lower   []float64 // per-variable lower bounds (>= 0)
	Budget  float64
}

// Solve returns the continuous optimum. The KKT conditions give
// x_i = max(Lower[i], Weights[i]/t) with t the smallest value whose
// total allocation fits the budget; total need is decreasing in t, so
// t is bisected to a relative 1e-12 between the unconstrained optimum
// sum(w)/budget and the level of an equal-slack feasible point.
func (p WaterFillProblem) Solve() ([]float64, float64, error) {
	n := len(p.Weights)
	if n == 0 {
		return nil, 0, errors.New("solve: empty problem")
	}
	if len(p.Lower) != n {
		return nil, 0, fmt.Errorf("solve: %d weights but %d lower bounds", n, len(p.Lower))
	}
	var lowSum, wSum float64
	for i := 0; i < n; i++ {
		if p.Weights[i] <= 0 {
			return nil, 0, fmt.Errorf("solve: weight %d is non-positive", i)
		}
		if p.Lower[i] < 0 {
			return nil, 0, fmt.Errorf("solve: lower bound %d is negative", i)
		}
		lowSum += p.Lower[i]
		wSum += p.Weights[i]
	}
	if lowSum > p.Budget {
		return nil, 0, fmt.Errorf("solve: lower bounds need %g GPUs, budget is %g", lowSum, p.Budget)
	}
	// Feasibility for a given objective value t: each variable needs at
	// least max(lower, w/t).
	need := func(t float64) float64 {
		total := 0.0
		for i := 0; i < n; i++ {
			total += math.Max(p.Lower[i], p.Weights[i]/t)
		}
		return total
	}
	// The unconstrained optimum t0 = sum(w)/budget is a lower bound on
	// t; active lower bounds can only raise it. A constructive feasible
	// point — give every variable its lower bound plus an equal share of
	// the slack — yields a valid upper bound for the bisection.
	tLo := wSum / p.Budget
	share := (p.Budget - lowSum) / float64(n)
	tHi := tLo
	for i := 0; i < n; i++ {
		alloc := p.Lower[i] + share
		if alloc <= 0 {
			return nil, 0, fmt.Errorf("solve: variable %d cannot receive any allocation", i)
		}
		tHi = math.Max(tHi, p.Weights[i]/alloc)
	}
	if need(tLo) <= p.Budget {
		tHi = tLo
	}
	t, err := bisect(tLo, tHi*(1+1e-12), func(t float64) bool {
		return need(t) <= p.Budget
	})
	if err != nil {
		return nil, 0, err
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = math.Max(p.Lower[i], p.Weights[i]/t)
	}
	// Distribute slack proportionally to weights: it cannot hurt the
	// max-objective and gives integer rounding room downstream.
	slack := p.Budget - sum(x)
	if slack > 0 {
		for i := 0; i < n; i++ {
			x[i] += slack * p.Weights[i] / wSum
		}
	}
	return x, t, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
