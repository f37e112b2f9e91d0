package orchestrator

import (
	"math"

	"disttrain/internal/model"
)

// point is one buildable integer allocation of a candidate — the
// backbone's PP and the modality modules' GPUs xz, the encoder's x and
// the generator's z — and its iteration time t.
type point struct {
	pp int
	xz [2]int
	t  float64
}

// grid is one candidate's buildable integer points: the backbone at PP
// pp in pps (y = unit·pp GPUs), the encoder on x GPUs and the generator
// on z, each a multiple of its group width w from its floor lo (the
// fewest at which it fits), x + y + z <= n. The modality pairs are
// ordered like model.Modalities. It is the candidate's only form of
// its §4.3 objective: the exact solve and the search's prune bound
// both read it. It scores a point with evaluate's operations in
// evaluate's order, so a time it compares is the time of the plan
// build makes there.
type grid struct {
	n, unit     int
	w, lo       [2]int
	pps         divisorTable
	num         [2]float64 // DP_lm·w·M·C(w): each modality module's stage time times its GPUs
	cm, vpp, kk float64    // C_lm·M, VPP and K−1
}

// gridFor is the strategy set's i-th candidate's grid. A candidate
// that passes noGrid has at least the point (pps[0], lo).
func (sc *searchCtx) gridFor(i int) (grid, error) {
	sh, t := sc.member(i)
	if err := sc.noGrid(sh, t); err != nil {
		return grid{}, err
	}
	var num [2]float64
	for j, mod := range model.Modalities {
		num[j] = sc.stageNum(sh, mod, t[j])
	}
	return sc.newGrid(sh, t, num), nil
}

// newGrid is shape sh's grid with each modality module at width
// tpSizes[t[j]], from its floor, with stage-time numerators num.
// Unchecked: noGrid says whether it has a point.
func (sc *searchCtx) newGrid(sh *shape, t [2]int, num [2]float64) grid {
	g := grid{
		n: sc.n, unit: sh.tp * sh.dp, num: num,
		cm: sh.cLM * sc.m, vpp: float64(sc.vpp), kk: float64(sh.k - 1),
	}
	for j := range t {
		g.w[j], g.lo[j] = sc.tpSizes[t[j]], sc.lo[j][t[j]]
	}
	g.pps = sc.divisors.between(sh.floor, (g.n-g.lo[0]-g.lo[1])/g.unit)
	return g
}

// stageNum is DP_lm·w·M·C(w) for modality module mod of shape sh at
// width w = tpSizes[t]: its stage time times its GPUs.
func (sc *searchCtx) stageNum(sh *shape, mod model.Module, t int) float64 {
	return float64(sh.dp) * float64(sc.tpSizes[t]) * sc.m * sc.cTrainTP[mod][t]
}

// fill is the most GPUs modality module j can take within room: the
// largest multiple of its width.
func (g *grid) fill(j, room int) int { return room / g.w[j] * g.w[j] }

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
	te, tg := g.num[0]/float64(x), g.num[1]/float64(z)
	steady := te
	if tLM > steady {
		steady = tLM
	}
	if tg > steady {
		steady = tg
	}
	return te + wLM + tg + float64(steady*g.kk)
}

// bound lower-bounds the time of every point of the grid without
// visiting them: the minimum over its PPs of the larger of two bounds
// on the points at that PP, which leaves x + z <= n − y to the
// modality modules.
//   - Relaxing x and z to reals: with a, b the encoder's and the
//     generator's num, by Cauchy–Schwarz a/x + b/z >= (√a+√b)²/(n−y),
//     and by the mediant max(a/x, b/z) >= (a+b)/(n−y). It
//     sums in another order than at, so it may exceed the best point's
//     time by rounding, which pruneSlack absorbs.
//   - at at the integer corner: x and z each the largest multiple of
//     their width that the other's floor leaves. No point at this PP
//     has a larger x or z, and at is non-increasing in both, so this
//     bound holds exactly, with no rounding slack.
//
// +Inf: the grid has no PP.
func (g *grid) bound() float64 {
	r := math.Sqrt(g.num[0]) + math.Sqrt(g.num[1])
	warm, side := r*r, g.num[0]+g.num[1]
	lb := math.Inf(1)
	for _, pp := range g.pps {
		y := g.unit * pp
		tLM, wLM := g.backbone(pp)
		rest := float64(g.n - y)
		steady := side / rest
		if tLM > steady {
			steady = tLM
		}
		b := wLM + warm/rest + steady*g.kk
		if b >= lb {
			continue // the corner could only raise this PP's bound
		}
		lb = min(lb, max(b, g.at(g.fill(0, g.n-y-g.lo[1]), g.fill(1, g.n-y-g.lo[0]), tLM, wLM)))
	}
	return lb
}

// fastest is the grid's fastest point, the first in (PP, x) order on
// a tie. At each (PP, x) the generator takes the largest z that fits:
// no smaller z is faster.
func (g *grid) fastest() point {
	best := point{t: math.Inf(1)}
	for _, pp := range g.pps {
		y := g.unit * pp
		tLM, wLM := g.backbone(pp)
		for x := g.lo[0]; x+y+g.lo[1] <= g.n; x += g.w[0] {
			z := g.fill(1, g.n-y-x)
			if t := g.at(x, z, tLM, wLM); t < best.t {
				best = point{pp, [2]int{x, z}, t}
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
		for x := g.lo[0]; x+y+g.lo[1] <= g.n; x += g.w[0] {
			z = min(z, g.fill(1, g.n-y-x))
			t := g.at(x, z, tLM, wLM)
			if t > limit {
				continue
			}
			for z-g.w[1] >= g.lo[1] {
				tz := g.at(x, z-g.w[1], tLM, wLM)
				if tz > limit {
					break
				}
				z, t = z-g.w[1], tz
			}
			p := point{pp, [2]int{x, z}, t}
			if n := g.gpus(p); !found || n < g.gpus(best) || (n == g.gpus(best) && t < best.t) {
				best, found = p, true
			}
		}
	}
	return best
}

// gpus is point p's GPU count.
func (g *grid) gpus(p point) int { return g.unit*p.pp + p.xz[0] + p.xz[1] }
