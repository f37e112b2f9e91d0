package orchestrator

import (
	"math"

	"disttrain/internal/model"
)

// subproblem is one strategy combination's objective (§4.3) with
// every per-candidate constant folded in:
//
//	base + a/x + c/z + max(w[0]/x, w[1]/y, w[2]/z)·kk,  x + y + z <= budget
//
// The first three terms are the Eq. 1 warm-up (PP_me = PP_mg = 1), the
// max is the Eq. 2 steady phase over kk = K−1 microbatches. All weights
// are positive and finite, which is what lets the methods compare
// instead of calling math.Max. It serves only the search's prune
// bounds: objective at an integer corner and discreteBound, which have
// to stay below every buildable point's time (FuzzDiscreteBound checks
// the latter against brute force). The candidate's exact solve is its
// grid, which scores points with evaluate's own arithmetic.
type subproblem struct {
	base   float64    // M·C_lm/VPP: the backbone's warm-up share
	a, c   float64    // warm-up numerators of the encoder (x) and generator (z)
	w      [3]float64 // steady-phase weights: T_mod = w[mod]/alloc
	kk     float64    // K−1
	budget float64
}

func (p *subproblem) objective(x, y, z float64) float64 {
	steady := p.w[0] / x
	if t := p.w[1] / y; t > steady {
		steady = t
	}
	if t := p.w[2] / z; t > steady {
		steady = t
	}
	return p.base + p.a/x + p.c/z + steady*p.kk
}

// discreteBound lower-bounds every plan the candidate can build. The
// backbone takes y = unit·pp GPUs for one of the layer divisors pps,
// leaving x + z <= budget − y to the modality modules, so
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

// point is one buildable integer allocation of a candidate — the
// backbone's PP, the encoder's x GPUs and the generator's z — and its
// iteration time t.
type point struct {
	pp, x, z int
	t        float64
}

// grid is one candidate's buildable integer points: the backbone at PP
// pp in pps (y = unit·pp GPUs), the encoder on x GPUs and the generator
// on z, x and z multiples of the group widths wME and wMG from xLo and
// zLo (the fewest at which each module fits), x + y + z <= n. It
// scores a point with evaluate's operations in evaluate's order, so a
// time it compares is the time of the plan build makes there.
type grid struct {
	n, unit, wME, wMG int
	xLo, zLo          int
	pps               divisorTable
	encNum, genNum    float64 // DP_lm·w·M·C(w): the encoder's and generator's stage time times their GPUs
	cm, vpp, kk       float64 // C_lm·M, VPP and K−1
}

// gridFor is the strategy set's i-th candidate's grid. A candidate
// that passes noSubproblem has at least the point (pps[0], xLo, zLo).
func (sc *searchCtx) gridFor(i int) (grid, error) {
	nt := len(sc.tpSizes)
	sh := &sc.shapes[i/(nt*nt)]
	me, mg := i/nt%nt, i%nt
	wME, wMG := sc.tpSizes[me], sc.tpSizes[mg]
	if err := sc.noSubproblem(sh, wME, wMG); err != nil {
		return grid{}, err
	}
	g := grid{
		n: sc.n, unit: sh.tp * sh.dp, wME: wME, wMG: wMG,
		xLo: sc.lowest(model.Encoder, wME), zLo: sc.lowest(model.Generator, wMG),
		encNum: float64(sh.dp) * float64(wME) * sc.m * sc.cTrainTP[model.Encoder][me],
		genNum: float64(sh.dp) * float64(wMG) * sc.m * sc.cTrainTP[model.Generator][mg],
		cm:     sh.cLM * sc.m, vpp: float64(sc.vpp), kk: float64(sh.k - 1),
	}
	g.pps = sc.divisors.between(sh.floor, (g.n-g.xLo-g.zLo)/g.unit)
	return g, nil
}

// backbone is the backbone's stage time and warm-up share at PP pp.
func (g *grid) backbone(pp int) (t, warm float64) {
	t = g.cm / float64(pp)
	return t, t * float64(pp) / g.vpp
}

// at is the iteration time at (x, z) given the backbone's stage time
// tLM and warm-up share wLM: Eq. 1 + Eq. 2 as evaluate sums them. Every
// term is non-increasing in x and in z, and so is the time, since IEEE
// arithmetic is monotone in each operand.
func (g *grid) at(x, z int, tLM, wLM float64) float64 {
	te, tg := g.encNum/float64(x), g.genNum/float64(z)
	steady := te
	if tLM > steady {
		steady = tLM
	}
	if tg > steady {
		steady = tg
	}
	return te + wLM + tg + float64(steady*g.kk)
}

// fastest is the grid's fastest point, the first in (PP, x) order on
// a tie. At each (PP, x) the generator takes the largest z that fits:
// no smaller z is faster.
func (g *grid) fastest() point {
	best := point{t: math.Inf(1)}
	for _, pp := range g.pps {
		y := g.unit * pp
		tLM, wLM := g.backbone(pp)
		for x := g.xLo; x+y+g.zLo <= g.n; x += g.wME {
			z := (g.n - y - x) / g.wMG * g.wMG
			if t := g.at(x, z, tLM, wLM); t < best.t {
				best = point{pp, x, z, t}
			}
		}
	}
	return best
}

// fewest is the grid's point with the fewest GPUs among those at most
// limit, ties to the faster and then to the first in (PP, x, z) order;
// the caller ensures one clears limit. At each (PP, x) only the
// smallest z that clears can win, and it never grows with x, so one
// cursor walks z down across a PP's row.
func (g *grid) fewest(limit float64) point {
	var best point
	found := false
	for _, pp := range g.pps {
		y := g.unit * pp
		tLM, wLM := g.backbone(pp)
		z := g.n
		for x := g.xLo; x+y+g.zLo <= g.n; x += g.wME {
			z = min(z, (g.n-y-x)/g.wMG*g.wMG)
			t := g.at(x, z, tLM, wLM)
			if t > limit {
				continue
			}
			for z-g.wMG >= g.zLo {
				tz := g.at(x, z-g.wMG, tLM, wLM)
				if tz > limit {
					break
				}
				z, t = z-g.wMG, tz
			}
			p := point{pp, x, z, t}
			if n := g.gpus(p); !found || n < g.gpus(best) || (n == g.gpus(best) && t < best.t) {
				best, found = p, true
			}
		}
	}
	return best
}

// gpus is point p's GPU count.
func (g *grid) gpus(p point) int { return g.unit*p.pp + p.x + p.z }
