package orchestrator

import (
	"math"

	"disttrain/internal/model"
)

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
// zLo (the fewest at which each module fits), x + y + z <= n. It is the
// candidate's only form of its §4.3 objective: the exact solve and the
// search's prune bound both read it. It scores a point with evaluate's
// operations in evaluate's order, so a time it compares is the time of
// the plan build makes there.
type grid struct {
	n, unit, wME, wMG int
	xLo, zLo          int
	pps               divisorTable
	encNum, genNum    float64 // DP_lm·w·M·C(w): the encoder's and generator's stage time times their GPUs
	cm, vpp, kk       float64 // C_lm·M, VPP and K−1
}

// gridFor is the strategy set's i-th candidate's grid. A candidate
// that passes noGrid has at least the point (pps[0], xLo, zLo).
func (sc *searchCtx) gridFor(i int) (grid, error) {
	nt := len(sc.tpSizes)
	sh := &sc.shapes[i/(nt*nt)]
	me, mg := i/nt%nt, i%nt
	if err := sc.noGrid(sh, me, mg); err != nil {
		return grid{}, err
	}
	return sc.newGrid(sh, me, mg, sc.stageNum(sh, model.Encoder, me), sc.stageNum(sh, model.Generator, mg)), nil
}

// newGrid is shape sh's grid with the encoder at width tpSizes[me] and
// the generator at tpSizes[mg], from their floors, with stage-time
// numerators encNum and genNum. Unchecked: noGrid says whether it has
// a point.
func (sc *searchCtx) newGrid(sh *shape, me, mg int, encNum, genNum float64) grid {
	g := grid{
		n: sc.n, unit: sh.tp * sh.dp, wME: sc.tpSizes[me], wMG: sc.tpSizes[mg],
		xLo: sc.xLo[me], zLo: sc.zLo[mg], encNum: encNum, genNum: genNum,
		cm: sh.cLM * sc.m, vpp: float64(sc.vpp), kk: float64(sh.k - 1),
	}
	g.pps = sc.divisors.between(sh.floor, (g.n-g.xLo-g.zLo)/g.unit)
	return g
}

// stageNum is DP_lm·w·M·C(w) for modality module mod of shape sh at
// width w = tpSizes[t]: its stage time times its GPUs.
func (sc *searchCtx) stageNum(sh *shape, mod model.Module, t int) float64 {
	return float64(sh.dp) * float64(sc.tpSizes[t]) * sc.m * sc.cTrainTP[mod][t]
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

// bound lower-bounds the time of every point of the grid without
// visiting them: the minimum over its PPs of the larger of two bounds
// on the points at that PP, which leaves x + z <= n − y to the
// modality modules.
//   - Relaxing x and z to reals: by Cauchy–Schwarz
//     encNum/x + genNum/z >= (√encNum+√genNum)²/(n−y), and by the
//     mediant max(encNum/x, genNum/z) >= (encNum+genNum)/(n−y). It
//     sums in another order than at, so it may exceed the best point's
//     time by rounding, which pruneSlack absorbs.
//   - at at the integer corner: x and z each the largest multiple of
//     their width that the other's floor leaves. No point at this PP
//     has a larger x or z, and at is non-increasing in both, so this
//     bound holds exactly, with no rounding slack.
//
// +Inf: the grid has no PP.
func (g *grid) bound() float64 {
	r := math.Sqrt(g.encNum) + math.Sqrt(g.genNum)
	warm, side := r*r, g.encNum+g.genNum
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
		lb = min(lb, max(b, g.at((g.n-y-g.zLo)/g.wME*g.wME, (g.n-y-g.xLo)/g.wMG*g.wMG, tLM, wLM)))
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
