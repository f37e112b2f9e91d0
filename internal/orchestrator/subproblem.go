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
// objective and refine keep one fixed floating-point evaluation order —
// ((base + a/x) + c/z) + steady·kk — because the search's contract is
// bit-identical plans: subproblem_test.go pins both to the closure-based
// formulation they replaced with math.Float64bits equality. The one
// prune bound, discreteBound, only has to stay below every buildable
// plan's time; FuzzDiscreteBound checks it against brute force.
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

// discreteBound lower-bounds every plan stage 3 can build from this
// subproblem. The backbone takes y = unit·pp GPUs for one of the layer
// divisors pps, leaving x + z <= budget − y to the modality modules, so
// by Cauchy–Schwarz a/x + c/z >= (√a+√c)²/(budget−y) and by the mediant
// max(w[0]/x, w[2]/z) >= (w[0]+w[2])/(budget−y); the minimum over the
// constructible y is the bound. Knowing that y only takes the
// backbone's few divisor sizes is what makes it tight where continuous
// relaxations are loose.
func (p *subproblem) discreteBound(unit int, pps divisorTable) float64 {
	r := math.Sqrt(p.a) + math.Sqrt(p.c)
	warm, side := r*r, p.w[0]+p.w[2]
	lb := math.Inf(1)
	for _, pp := range pps {
		y := float64(unit * pp)
		rest := p.budget - y
		steady := side / rest
		if t := p.w[1] / y; t > steady {
			steady = t
		}
		if b := p.base + warm/rest + steady*p.kk; b < lb {
			lb = b
		}
	}
	return lb
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
