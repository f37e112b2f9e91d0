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

// The walks score runs of at most leafRun points of x one by one; a
// longer run is bounded at its corner first and split only when the
// bound cannot rule it out. A row of at most shortRow points is walked
// plainly: a seed or a bound would cost more there than it saves.
const (
	leafRun  = 8
	shortRow = 32
)

// row is one PP of the grid: the backbone's y GPUs, the room n − y it
// leaves, and the backbone's stage time and warm-up share.
type row struct {
	pp, y, room int
	tLM, wLM    float64
}

func (g *grid) row(pp int) row {
	y := g.unit * pp
	tLM, wLM := g.backbone(pp)
	return row{pp, y, g.n - y, tLM, wLM}
}

// long says whether the row whose backbone takes y GPUs has more than
// shortRow points of x.
func (g *grid) long(y int) bool { return g.n-y-g.lo[0]-g.lo[1] >= shortRow*g.w[0] }

// before says whether (pp, x) comes before point p in (PP, x) order.
func before(pp, x int, p point) bool { return pp < p.pp || pp == p.pp && x < p.xz[0] }

// fastest is the grid's fastest point, the first in (PP, x) order on a
// tie. At each (PP, x) the generator takes the largest z that fits: no
// smaller z is faster. Since at is non-increasing in x and z, no point
// of a run of a row, its x in [xa, xb], is faster than its corner
// at(xb, fill(n − y − xa)), so the walk skips a run whose corner is
// slower than the best point so far, or ties it and starts after it.
// Comparing by (t, PP, x) lets seeds come first: in each long row, the
// points nearest the relaxation's optima x = (n − y)·a/(a+b) and
// (n − y)·√a/(√a+√b), a and b the modules' num.
func (g *grid) fastest() point {
	best := point{t: math.Inf(1)}
	a, b := g.num[0], g.num[1]
	for _, pp := range g.pps {
		if !g.long(g.unit * pp) {
			break // rows shorten as PP grows
		}
		r := g.row(pp)
		for _, f := range [2]float64{a / (a + b), math.Sqrt(a) / (math.Sqrt(a) + math.Sqrt(b))} {
			k := min(max(int(math.Round((float64(r.room)*f-float64(g.lo[0]))/float64(g.w[0]))), 0), (r.room-g.lo[0]-g.lo[1])/g.w[0])
			x := g.lo[0] + k*g.w[0]
			g.fastIn(&best, r, x, x)
		}
	}
	for _, pp := range g.pps {
		r := g.row(pp)
		g.fastIn(&best, r, g.lo[0], r.room-g.lo[1])
	}
	return best
}

// fastIn raises best to the first in (t, PP, x) order of itself and
// row r's points with x from xa, a point of the row, to xb.
func (g *grid) fastIn(best *point, r row, xa, xb int) {
	if xb-xa < leafRun*g.w[0] || !g.long(r.y) {
		p := *best
		for x := xa; x <= xb; x += g.w[0] {
			z := g.fill(1, r.room-x)
			if t := g.at(x, z, r.tLM, r.wLM); t < p.t || t == p.t && before(r.pp, x, p) {
				p = point{r.pp, [2]int{x, z}, t}
			}
		}
		*best = p
		return
	}
	if lb := g.at(xb, g.fill(1, r.room-xa), r.tLM, r.wLM); lb > best.t || lb == best.t && !before(r.pp, xa, *best) {
		return
	}
	m := xa + (xb-xa)/g.w[0]/2*g.w[0]
	g.fastIn(best, r, xa, m)
	g.fastIn(best, r, m+g.w[0], xb)
}

// fewest is the grid's point with the fewest GPUs among those at most
// limit, ties to the faster and then to the first in (PP, x, z) order;
// the caller ensures one clears limit. At each (PP, x) only the
// smallest z that clears can win, and only if it is at most hi, the z
// that would tie the best GPU count so far. The walk visits (PP, x) in
// order and skips a run, its x in [xa, xb], that cannot win: with hi
// taken at xa and ζ the smallest z <= hi at which at(xb, ζ) clears, a
// point of the run that can win has z >= ζ, so at least y + xa + ζ
// GPUs, and is no faster than the corner at(xb, hi). No ζ: none can
// win.
func (g *grid) fewest(limit float64) point {
	best, most := point{t: math.Inf(1)}, math.MaxInt
	for _, pp := range g.pps {
		r := g.row(pp)
		g.fewIn(&best, &most, r, g.lo[0], r.room-g.lo[1], g.lo[1], limit)
	}
	return best
}

// fewIn raises best, of most GPUs, to the winner among row r's points
// with x from xa, a point of the row, to xb, none of which clears limit
// below z = zlo.
func (g *grid) fewIn(best *point, most *int, r row, xa, xb, zlo int, limit float64) {
	if xb-xa >= leafRun*g.w[0] && g.long(r.y) {
		hi := g.fill(1, min(r.room, *most-r.y)-xa)
		if hi < zlo {
			return
		}
		corner := g.at(xb, hi, r.tLM, r.wLM)
		if corner > limit {
			return
		}
		if zlo, _ = g.least(xb, zlo, hi, corner, r, limit); r.y+xa+zlo == *most && corner >= best.t {
			return
		}
		m := xa + (xb-xa)/g.w[0]/2*g.w[0]
		g.fewIn(best, most, r, xa, m, zlo, limit)
		g.fewIn(best, most, r, m+g.w[0], xb, zlo, limit)
		return
	}
	for x := xa; x <= xb; x += g.w[0] {
		hi := g.fill(1, min(r.room, *most-r.y)-x)
		if hi < zlo {
			return // and at every larger x
		}
		if t := g.at(x, hi, r.tLM, r.wLM); t <= limit {
			z, t := g.least(x, zlo, hi, t, r, limit)
			if n := r.y + x + z; n < *most || n == *most && t < best.t {
				*best, *most = point{r.pp, [2]int{x, z}, t}, n
			}
		}
	}
}

// least is the smallest z in [lo, hi], a multiple of the generator's
// width, whose time at x in row r clears limit, and that time, given t,
// hi's time, which clears. It steps down from hi in doubling strides
// while the time clears, then bisects the stride that did not: a step
// or two when z barely moves, logarithmic when it moves far.
func (g *grid) least(x, lo, hi int, t float64, r row, limit float64) (int, float64) {
	for step := g.w[1]; lo < hi; step *= 2 {
		mid := max(lo, hi-step)
		tm := g.at(x, mid, r.tLM, r.wLM)
		if tm > limit {
			lo = mid + g.w[1]
			break
		}
		hi, t = mid, tm
	}
	for lo < hi {
		mid := lo + (hi-lo)/g.w[1]/2*g.w[1]
		if tm := g.at(x, mid, r.tLM, r.wLM); tm <= limit {
			hi, t = mid, tm
		} else {
			lo = mid + g.w[1]
		}
	}
	return hi, t
}

// gpus is point p's GPU count.
func (g *grid) gpus(p point) int { return g.unit*p.pp + p.xz[0] + p.xz[1] }
