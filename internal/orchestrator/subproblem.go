package orchestrator

import "math"

// subproblem is one strategy combination's convex program (§4.3) with
// every per-candidate constant folded in:
//
//	minimise   base + a/x + c/z + max(w[0]/x, w[1]/y, w[2]/z)·kk
//	subject to x + y + z <= budget,  x >= lower[0], y >= lower[1], z >= lower[2]
//
// The first three terms are the Eq. 1 warm-up (PP_me = PP_mg = 1), the
// max is the Eq. 2 steady phase over kk = K−1 microbatches. All weights
// and lower bounds are positive and finite, which is what lets the
// methods compare instead of calling math.Max.
//
// Every method keeps one fixed floating-point evaluation order —
// ((base + a/x) + c/z) + steady·kk — because the search's contract is
// bit-identical plans: subproblem_test.go pins each method to the
// closure-based formulation it replaced with math.Float64bits equality.
type subproblem struct {
	base   float64    // M·C_lm/VPP: the backbone's warm-up share
	a, c   float64    // warm-up numerators of the encoder (x) and generator (z)
	w      [3]float64 // steady-phase weights: T_mod = w[mod]/alloc
	kk     float64    // K−1
	budget float64
	lower  [3]float64 // memory floors and granularity minimums
}

func (p *subproblem) warmup(x, z float64) float64 {
	return p.base + p.a/x + p.c/z
}

func (p *subproblem) objective(x, y, z float64) float64 {
	steady := p.w[0] / x
	if t := p.w[1] / y; t > steady {
		steady = t
	}
	if t := p.w[2] / z; t > steady {
		steady = t
	}
	return p.warmup(x, z) + steady*p.kk
}

// corner returns u_i = budget − Σ_{j≠i} lower_j, the largest value any
// feasible allocation can give axis i.
func (p *subproblem) corner() (ux, uy, uz float64) {
	sumLower := p.lower[0] + p.lower[1] + p.lower[2]
	return p.budget - (sumLower - p.lower[0]),
		p.budget - (sumLower - p.lower[1]),
		p.budget - (sumLower - p.lower[2])
}

// cornerBound: the objective is decreasing in each argument, so its
// value at the corner lower-bounds every feasible allocation.
func (p *subproblem) cornerBound() float64 {
	return p.objective(p.corner())
}

// mediantBound: any split of at most budget GPUs has max_i(w_i/a_i) >=
// (w_x+w_y+w_z)/budget (the max of ratios is at least their combined
// ratio), and warmup is decreasing in (x, z) — tighter than the corner
// bound whenever the three weights are balanced.
func (p *subproblem) mediantBound() float64 {
	ux, _, uz := p.corner()
	return p.warmup(ux, uz) + (p.w[0]+p.w[1]+p.w[2])/p.budget*p.kk
}

// waterFillBound: steadyOpt is the exact continuous minimum of the
// steady term (the KKT water level), so warmup(corner) + kk·steadyOpt
// lower-bounds the continuous optimum — more tightly than the mediant
// whenever a lower bound binds (typically the backbone's memory floor).
func (p *subproblem) waterFillBound(steadyOpt float64) float64 {
	ux, _, uz := p.corner()
	return p.warmup(ux, uz) + steadyOpt*p.kk
}

// dualBound lower-bounds the continuous optimum without touching the
// lower bounds: for any simplex weights (λ, μ, ν), the steady max
// dominates the convex combination λ·w0/x + μ·w1/y + ν·w2/z, so with
// the warm-up sharing the same per-GPU coefficients (warmup = base +
// w0/x + w2/z),
//
//	objective ≥ base + (w0 + λ·kk·w0)/x + μ·kk·w1/y + (w2 + ν·kk·w2)/z
//
// and minimising P/x + Q/y + R/z over x+y+z ≤ n has the closed form
// (√P + √Q + √R)²/n. The bound is maximised over the simplex by KKT —
// P, Q, R must share a common c with P = c·(kk·w0)², etc. — clamping λ
// or ν to zero when the unconstrained stationary point leaves the
// simplex. Tight whenever the candidate's memory floors don't bind,
// which is exactly where the corner and water-fill bounds are loose.
func (p *subproblem) dualBound() float64 {
	w0, w1, w2 := p.w[0], p.w[1], p.w[2]
	kk, n := p.kk, p.budget
	if kk <= 0 {
		r := math.Sqrt(w0) + math.Sqrt(w2)
		return p.base + r*r/n
	}
	c := (1 + 2/kk) / (kk * (w0 + w1 + w2))
	lam := c*kk*w0 - 1/kk
	nu := c*kk*w2 - 1/kk
	if lam < 0 && nu < 0 {
		lam, nu = 0, 0
	} else if lam < 0 {
		lam = 0
		nu = (1+1/kk)/(kk*(w1+w2))*kk*w2 - 1/kk
		if nu < 0 {
			nu = 0
		}
	} else if nu < 0 {
		nu = 0
		lam = (1+1/kk)/(kk*(w0+w1))*kk*w0 - 1/kk
		if lam < 0 {
			lam = 0
		}
	}
	mu := 1 - lam - nu
	r := math.Sqrt(w0*(1+lam*kk)) + math.Sqrt(mu*kk*w1) + math.Sqrt(w2*(1+nu*kk))
	return p.base + r*r/n
}

// invPhi and goldenTol are solve.MinimizeConvex1D's constants: the
// golden-section loops below are that routine inlined, and must narrow
// their brackets through exactly the same points.
const invPhi = 1 / 1.618033988749895

// goldenTol is the stop rule's right-hand side, 1e-4·max(1, |b|).
func goldenTol(b float64) float64 {
	if b < 0 {
		b = -b
	}
	if b < 1 {
		b = 1
	}
	return 1e-4 * b
}

// xTerms is everything the objective needs from x alone, hoisted out of
// the inner z loop.
type xTerms struct {
	warm   float64 // base + a/x
	steady float64 // w[0]/x
	rest   float64 // budget − x
}

// at evaluates the objective at (x, rest−z, z); +Inf when the backbone
// would fall below its lower bound. c/z serves both the warm-up and the
// steady term when their numerators are the same float.
func (p *subproblem) at(h xTerms, z float64) float64 {
	y := h.rest - z
	if y < p.lower[1] {
		return math.Inf(1)
	}
	cz := p.c / z
	steady := cz
	if p.c != p.w[2] {
		steady = p.w[2] / z
	}
	if t := p.w[1] / y; t > steady {
		steady = t
	}
	if h.steady > steady {
		steady = h.steady
	}
	return h.warm + cz + steady*p.kk
}

// minOverZ is the inner golden section: the z minimising the objective
// at fixed x, and the objective there. +Inf when x leaves the generator
// no room above its lower bound.
func (p *subproblem) minOverZ(x float64) (z, f float64) {
	zHi := p.budget - p.lower[1] - x
	if zHi <= p.lower[2] {
		return 0, math.Inf(1)
	}
	h := xTerms{warm: p.base + p.a/x, steady: p.w[0] / x, rest: p.budget - x}
	a, b := p.lower[2], zHi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := p.at(h, c), p.at(h, d)
	for b-a > goldenTol(b) {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = p.at(h, c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = p.at(h, d)
		}
	}
	z = (a + b) / 2
	return z, p.at(h, z)
}

// refine is stage 2 of the subproblem: nested golden-section over
// (x, z) with y = budget − x − z, honouring the lower bounds. It
// returns the better of the water-fill seed and the refined point (the
// warm-up term shifts the optimum slightly toward the modality modules
// when K is small).
func (p *subproblem) refine(seed [3]float64) [3]float64 {
	xHi := p.budget - p.lower[1] - p.lower[2]
	if xHi <= p.lower[0] {
		return seed
	}
	a, b := p.lower[0], xHi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	_, fc := p.minOverZ(c)
	_, fd := p.minOverZ(d)
	for b-a > goldenTol(b) {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			_, fc = p.minOverZ(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			_, fd = p.minOverZ(d)
		}
	}
	x := (a + b) / 2
	z, f := p.minOverZ(x)
	if f <= p.objective(seed[0], seed[1], seed[2]) {
		return [3]float64{x, p.budget - x - z, z}
	}
	return seed
}
