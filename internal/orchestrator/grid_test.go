package orchestrator

import (
	"math"
	"slices"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/profiler"
)

// sweepSpecs are the twelve plan-sweep-shaped specs: three models at
// Table 3's four scales, one model per scale under a frozen setting,
// scoped out of one 192-node cluster like the benchmark's grid.
func sweepSpecs(t testing.TB) []Spec {
	t.Helper()
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	models := []model.MLLM{model.MLLM9B(), model.MLLM15B(), model.MLLM72B()}
	frozen := model.FrozenSettings()
	var specs []Spec
	for row, scale := range [][2]int{{14, 240}, {41, 480}, {81, 960}, {162, 1920}} {
		for i, m := range models {
			cl := cluster.Production(192)
			opts := profiler.DefaultOptions(cl, m)
			if i == row%len(models) {
				opts.Freeze = frozen[row]
			}
			p, err := profiler.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Calibrate(corpus, 300); err != nil {
				t.Fatal(err)
			}
			cl.Nodes = scale[0]
			specs = append(specs, Spec{Cluster: cl, Model: m, GlobalBatch: scale[1], Microbatch: 1, Profiler: p, VPP: 1})
		}
	}
	return specs
}

// fuzzPos maps an arbitrary fuzz input onto a positive finite
// constant.
func fuzzPos(v float64) float64 {
	v = math.Abs(v)
	if math.IsNaN(v) || v < 1e-9 {
		return 1e-9
	}
	return min(v, 1e9)
}

// fuzzCtx is a hand-built search context for the bound fuzzers: a
// budget of n GPUs, widths {1, 2, 4, 8}, a backbone of layers layers
// and the modality floors of modules that fit from encFrom and genFrom
// GPUs.
func fuzzCtx(n, layers, mb, vpp, encFrom, genFrom int) searchCtx {
	sc := searchCtx{
		n: n, m: float64(mb), vpp: vpp, tpSizes: []int{1, 2, 4, 8}, divisors: divisorsOf(layers),
	}
	sc.setFloors([2]int{encFrom, genFrom})
	return sc
}

// bruteFastest is the fastest time over every buildable point of g,
// found without g.pps: every divisor pp of the layer count at least
// floor, and x and z every multiple of their widths from their floors,
// with x + unit·pp + z <= n. +Inf: there is none.
func bruteFastest(g *grid, ds divisorTable, floor int) float64 {
	best := math.Inf(1)
	for _, pp := range ds.between(floor, g.n) {
		y := g.unit * pp
		tLM, wLM := g.backbone(pp)
		for x := g.lo[0]; x+y+g.lo[1] <= g.n; x += g.w[0] {
			for z := g.lo[1]; x+y+z <= g.n; z += g.w[1] {
				best = min(best, g.at(x, z, tLM, wLM))
			}
		}
	}
	return best
}

// The prune bounds never exceed the time of the plan a candidate
// actually produces, on every candidate of the plan-sweep specs one
// node either side of Table 3's sizes and of the two-phase gate's
// shapes: grid.bound only by float ordering, and by less than
// pruneSlack. Each shape's blockBound lies at or below the smallest
// bound among its candidates.
func TestPruneBoundsAreLowerBounds(t *testing.T) {
	var specs []Spec
	sweep := sweepSpecs(t)
	if testing.Short() {
		sweep = sweep[:6]
	}
	for _, s := range sweep {
		for _, d := range []int{-1, 0, 1} {
			s.Cluster.Nodes += d
			specs = append(specs, s)
			s.Cluster.Nodes -= d
		}
	}
	for _, tc := range twoPhaseShapes {
		specs = append(specs, newSpec(t, tc.m, tc.nodes, tc.batch, tc.freeze))
	}
	for _, s := range specs {
		s := s
		sc := newSearchCtx(&s)
		n := sc.strategySet()
		bs := n / len(sc.shapes)
		minLB := make([]float64, len(sc.shapes))
		for b := range minLB {
			minLB[b] = math.Inf(1)
		}
		checked := 0
		for i := range n {
			g, err := sc.gridFor(i)
			if err != nil {
				continue
			}
			lb := g.bound()
			minLB[i/bs] = min(minLB[i/bs], lb)
			sp, err := sc.solveCandidate(i)
			if err != nil {
				continue
			}
			if lb > sp.plan.IterTime*(1+pruneSlack) {
				t.Fatalf("%s nodes=%d %v: lower bound %g exceeds the produced plan's %g",
					s.Model.Name, s.Cluster.Nodes, sc.candidate(i), lb, sp.plan.IterTime)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s nodes=%d: no candidate produced a plan", s.Model.Name, s.Cluster.Nodes)
		}
		for b, sh := range sc.shapes {
			if bb := sc.blockBound(b); bb > minLB[b] {
				t.Fatalf("%s nodes=%d TP=%d DP=%d: block bound %g exceeds its smallest candidate bound %g",
					s.Model.Name, s.Cluster.Nodes, sh.tp, sh.dp, bb, minLB[b])
			}
		}
	}
}

// FuzzDiscreteBound checks grid.bound, the bound over a candidate's
// discrete grid, against brute force over every point of a random
// grid: for random budgets, backbone shapes, layer counts, memory
// floors, group widths, modality floors (often above the widths),
// stage-time numerators, microbatch sizes, VPP and K, the bound must
// not exceed the fastest point's time beyond pruneSlack,
// grid.fastest must find that time exactly, and noGrid must pass
// exactly when the grid has a point.
func FuzzDiscreteBound(f *testing.F) {
	// n, tp, dp, k, layers, floor, mb, vpp, me, mg, encFrom, genFrom, encNum, genNum, C_lm
	f.Add(uint8(96), uint8(3), uint8(1), uint16(29), uint8(40), uint8(1), uint8(0), uint8(0),
		uint8(0), uint8(0), uint8(1), uint8(1), 3.0, 5.0, 40.0)
	f.Add(uint8(127), uint8(2), uint8(3), uint16(239), uint8(80), uint8(3), uint8(1), uint8(1),
		uint8(1), uint8(3), uint8(5), uint8(1), 3.5, 4.5, 40.0) // encoder floor 6 above width 2
	f.Add(uint8(2), uint8(0), uint8(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0),
		uint8(0), uint8(0), uint8(1), uint8(1), 1.0, 1.0, 1.0) // a one-point grid
	f.Add(uint8(64), uint8(1), uint8(1), uint16(65535), uint8(59), uint8(4), uint8(3), uint8(3),
		uint8(2), uint8(1), uint8(21), uint8(13), 1e-9, 1e9, 12.5) // floors far above the widths
	f.Add(uint8(9), uint8(0), uint8(4), uint16(7), uint8(31), uint8(0), uint8(0), uint8(0),
		uint8(0), uint8(0), uint8(6), uint8(6), 1.0, 1.0, 1.0) // floors exceed the budget
	f.Fuzz(func(t *testing.T, n, tp, dp uint8, k uint16, layers, floor, mb, vpp, me, mg, encFrom, genFrom uint8,
		encNum, genNum, cLM float64) {
		sc := fuzzCtx(int(n)%128+1, int(layers)%96+1, int(mb)%4+1, int(vpp)%4+1, int(encFrom)%130+1, int(genFrom)%130+1)
		sh := shape{tp: 1 << (tp % 4), dp: int(dp)%16 + 1, k: int(k)%1024 + 1, cLM: fuzzPos(cLM)}
		sh.floor = sc.divisors[int(floor)%len(sc.divisors)]
		wi := [2]int{int(me) % 4, int(mg) % 4}
		g := sc.newGrid(&sh, wi, [2]float64{fuzzPos(encNum), fuzzPos(genNum)})

		best := bruteFastest(&g, sc.divisors, sh.floor)
		if has := !math.IsInf(best, 1); has != (sc.noGrid(&sh, wi) == nil) {
			t.Fatalf("%+v %+v: noGrid says %v, brute force finds a point: %v", sh, g, sc.noGrid(&sh, wi), has)
		}
		if lb := g.bound(); lb > best*(1+pruneSlack) {
			t.Fatalf("%+v %+v: bound %g above the fastest point's %g", sh, g, lb, best)
		}
		if p := g.fastest(); p.t != best {
			t.Fatalf("%+v %+v: fastest finds %g, brute force %g", sh, g, p.t, best)
		}
	})
}

// FuzzBlockBound checks blockBound on one hand-built shape against
// its members: for random DP_lm, TP_lm, microbatch size, VPP, K,
// per-width C tables, budgets, layer counts, memory floors and
// modality floors, the block's bound must not exceed any member's
// grid.bound — exactly, as the bound is the same IEEE arithmetic on
// operands no larger — nor, beyond pruneSlack, the fastest point a
// member could build (brute force, as in FuzzDiscreteBound).
func FuzzBlockBound(f *testing.F) {
	// dp, tp, mb, vpp, k, budget, layers, floor, encFrom, genFrom, C_lm, C_me(1,2,4,8), C_mg(1,2,4,8)
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), uint16(29), uint8(96), uint8(40), uint8(2), uint8(1), uint8(1),
		3.0, 1.0, 0.6, 0.35, 0.2, 2.0, 1.1, 0.6, 0.3)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint16(239), uint8(127), uint8(80), uint8(4), uint8(3), uint8(11),
		40.0, 3.0, 3.5, 0.1, 9.0, 5.0, 0.2, 4.5, 7.0) // cheapest widths differ per module
	f.Add(uint8(15), uint8(3), uint8(3), uint8(3), uint16(0), uint8(64), uint8(60), uint8(7), uint8(1), uint8(1),
		1e-9, 1e9, 1e-9, 1.0, 1.0, 1e9, 1e9, 1e-9, 1.0) // K = 0: no microbatch
	f.Add(uint8(3), uint8(2), uint8(0), uint8(0), uint16(7), uint8(9), uint8(32), uint8(1), uint8(1), uint8(1),
		1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0) // budget too small for most members
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint16(15), uint8(40), uint8(12), uint8(1), uint8(9), uint8(5),
		2.0, 1.0, 0.6, 0.35, 0.2, 2.0, 1.1, 0.6, 0.3) // floors above the narrow widths
	f.Fuzz(func(t *testing.T, dp, tp, mb, vpp uint8, k uint16, budget, layers, floor, encFrom, genFrom uint8,
		cLM, e0, e1, e2, e3, g0, g1, g2, g3 float64) {
		tpSizes := []int{1, 2, 4, 8}
		nLayers := int(layers)%96 + 1
		sh := shape{tp: tpSizes[tp%4], dp: int(dp)%16 + 1, k: int(k) % 1024, cLM: fuzzPos(cLM)}
		s := Spec{Microbatch: int(mb)%4 + 1}
		s.GlobalBatch = sh.k * sh.dp * s.Microbatch
		sc := fuzzCtx(int(budget)%128+1, nLayers, s.Microbatch, int(vpp)%4+1, int(encFrom)%130+1, int(genFrom)%130+1)
		sh.floor = sc.divisors[int(floor)%len(sc.divisors)]
		sc.spec, sc.shapes = &s, []shape{sh}
		sc.cTrainTP[model.Encoder] = []float64{fuzzPos(e0), fuzzPos(e1), fuzzPos(e2), fuzzPos(e3)}
		sc.cTrainTP[model.Backbone] = []float64{sh.cLM, sh.cLM, sh.cLM, sh.cLM}
		sc.cTrainTP[model.Generator] = []float64{fuzzPos(g0), fuzzPos(g1), fuzzPos(g2), fuzzPos(g3)}

		bound := sc.blockBound(0)
		for i := range len(tpSizes) * len(tpSizes) {
			g, err := sc.gridFor(i)
			if err != nil {
				continue
			}
			c := sc.candidate(i)
			if lb := g.bound(); bound > lb {
				t.Fatalf("%+v %v: block bound %g above the member's bound %g", sh, c, bound, lb)
			}
			if best := bruteFastest(&g, sc.divisors, sh.floor); bound > best*(1+pruneSlack) {
				t.Fatalf("%+v %v: block bound %g above the member's fastest point %g", sh, c, bound, best)
			}
		}
	})
}

// The divisor table serves both PP helpers; each must agree with
// the brute-force scan it replaced for every layer count, floor and cap.
func TestDivisorTableMatchesBruteForce(t *testing.T) {
	smallest := func(layers, floor int) int {
		for d := 1; d <= layers; d++ {
			if layers%d == 0 && d >= floor {
				return d
			}
		}
		return 0
	}
	between := func(layers, floor, cap int) []int {
		var out []int
		for d := 1; d <= layers; d++ {
			if layers%d == 0 && d >= floor && d <= cap {
				out = append(out, d)
			}
		}
		return out
	}
	snap := func(pp, layers, floor int) int {
		if pp > layers {
			pp = layers
		}
		for d := pp; d >= floor && d >= 1; d-- {
			if layers%d == 0 {
				return d
			}
		}
		return smallest(layers, floor)
	}
	for layers := 1; layers <= 128; layers++ {
		ds := divisorsOf(layers)
		for floor := -1; floor <= layers+2; floor++ {
			for cap := -1; cap <= layers+2; cap++ {
				if got, want := ds.between(floor, cap), between(layers, floor, cap); !slices.Equal(got, want) {
					t.Fatalf("between(layers=%d, floor=%d, cap=%d) = %v, want %v", layers, floor, cap, got, want)
				}
				if got, want := ds.snapPPToLayers(cap, floor), snap(cap, layers, floor); got != want {
					t.Fatalf("snapPPToLayers(pp=%d, layers=%d, floor=%d) = %d, want %d", cap, layers, floor, got, want)
				}
			}
		}
	}
	if ds := divisorsOf(0); ds.snapPPToLayers(4, 1) != 0 || len(ds.between(1, 4)) != 0 {
		t.Error("a zero-layer backbone has no valid PP")
	}
}

// Allocation budgets: one feasible candidate costs its Plan, which the
// exact solve builds at its fastest point; a cold search
// (BenchmarkWarmPlanSearch/cold) costs that per solved candidate plus
// its per-search tables.
func TestPlanSearchAllocBudget(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining) // BenchmarkWarmPlanSearch's spec
	sc := newSearchCtx(&s)
	cands := sc.strategySet()
	feasible := -1
	for i := range cands {
		if _, err := sc.solveCandidate(i); err == nil {
			feasible = i
			break
		}
	}
	if feasible < 0 {
		t.Fatal("no feasible candidate")
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := sc.solveCandidate(feasible); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("solveCandidate: %.0f allocs per feasible candidate, budget 1", got)
	}

	// A cold search allocates tables and Plans only: on this spec the
	// spec copy it holds, 11 for the context and its block table, the
	// heap, the solved list, a Plan for each of the 16 candidates (of
	// 624) it solves and the winner's — 31. Grids, bounds and pruned
	// candidates allocate nothing, so the budget, 31 plus 10%, fails a
	// change that allocates per candidate or per bound.
	if got := testing.AllocsPerRun(3, func() {
		if _, err := Search(s, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}); got > 34 {
		t.Errorf("cold search: %.0f allocs for %d candidates, budget 34", got, cands)
	}
}
