// Package solve is a miniature disciplined-convex toolkit standing in
// for the CVX solver the paper uses (§6: "formulates the disaggregated
// model orchestration problem using Disciplined Convex Programming
// [and] employs the CVX solver"). The orchestrator's simplified
// subproblem — minimise a max of c_i/x_i terms over a capped simplex
// with lower bounds — admits an exact water-filling solution, so no
// general-purpose solver is needed; this package provides that solver
// plus the golden-section search the orchestrator's subproblem kernel
// inlines.
//
// Reentrancy: every entry point is a pure function of its arguments —
// value receivers, no package-level mutable state, fresh output slices
// on every call. A plan search runs on one goroutine, but fleets and
// plan caches on separate goroutines search at once, so Solve and
// RoundAllocation may run concurrently with themselves; callers only
// need their own callback closures to be goroutine-safe. The
// orchestrator's subproblem kernel carries its own inlined copy of
// MinimizeConvex1D, pinned to this one bit for bit by its tests.
// TestSolveReentrancy pins this property under the race detector.
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

// MinimizeConvex1D minimises a unimodal (convex) function on [lo, hi]
// by golden-section search and returns the minimising argument.
func MinimizeConvex1D(lo, hi, tol float64, f func(float64) float64) float64 {
	const phi = 1.618033988749895
	invPhi := 1 / phi
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol*math.Max(1, math.Abs(b)) {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
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

// RoundAllocation rounds a continuous GPU allocation down to integer
// multiples of the per-variable granularity (TP*DP for a parallelism
// unit), guaranteeing each variable keeps at least one granule and the
// total never exceeds the budget. Leftover granules go to the variable
// whose weight/x ratio (the objective's argmax) is largest.
//
// Each loop keeps the ratio it compares for every variable and
// recomputes only the entry of the variable it just moved: the same
// quotients of the same operands as dividing afresh on every granule.
func RoundAllocation(x []float64, weights []float64, granule []int, budget int) []int {
	n := len(x)
	out := make([]int, n)
	var small [3]float64 // the orchestrator's three variables: no allocation
	ratio := small[:]
	if n > len(small) {
		ratio = make([]float64, n)
	}
	used := 0
	for i := 0; i < n; i++ {
		g := max(granule[i], 1)
		k := int(x[i]) / g
		if k < 1 {
			k = 1
		}
		out[i] = k * g
		used += out[i]
	}
	// Shrink the least-loaded variables if rounding overshot: ratio[i]
	// is variable i's after giving up one granule.
	if used > budget {
		for i := 0; i < n; i++ {
			ratio[i] = weights[i] / float64(out[i]-max(granule[i], 1))
		}
	}
	for used > budget {
		best := -1
		bestRatio := math.Inf(1)
		for i := 0; i < n; i++ {
			if out[i] <= max(granule[i], 1) {
				continue
			}
			if ratio[i] < bestRatio {
				bestRatio = ratio[i]
				best = i
			}
		}
		if best < 0 {
			break
		}
		g := max(granule[best], 1)
		out[best] -= g
		used -= g
		ratio[best] = weights[best] / float64(out[best]-g)
	}
	// Hand spare granules to the current bottleneck: ratio[i] is
	// variable i's at its allocation.
	for i := 0; i < n; i++ {
		ratio[i] = weights[i] / float64(out[i])
	}
	for {
		best := -1
		bestRatio := 0.0
		for i := 0; i < n; i++ {
			if used+max(granule[i], 1) > budget {
				continue
			}
			if ratio[i] > bestRatio {
				bestRatio = ratio[i]
				best = i
			}
		}
		if best < 0 {
			break
		}
		g := max(granule[best], 1)
		out[best] += g
		used += g
		ratio[best] = weights[best] / float64(out[best])
	}
	return out
}
