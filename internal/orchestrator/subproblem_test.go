package orchestrator

import (
	"context"
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

// fuzzSubproblem maps arbitrary fuzz inputs onto the bounds' domain:
// positive finite weights.
func fuzzSubproblem(base, a, c, w0, w1, w2 float64, k uint16) subproblem {
	pos := func(v, lo, hi float64) float64 {
		v = math.Abs(v)
		if math.IsNaN(v) || v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	return subproblem{
		base: pos(base, 0, 1e6),
		a:    pos(a, 1e-9, 1e9), c: pos(c, 1e-9, 1e9),
		w:  [3]float64{pos(w0, 1e-9, 1e9), pos(w1, 1e-9, 1e9), pos(w2, 1e-9, 1e9)},
		kk: float64(k),
	}
}

// The prune's lower bound — integer corner and discreteBound — never
// exceeds the time of the plan a candidate actually produces, on every
// candidate of the plan-sweep specs one node either side of Table 3's
// sizes and of the two-phase gate's shapes. Only float ordering may
// separate them, and by less than pruneSlack. Each shape's blockBound
// lies at or below the smallest lower bound among its candidates.
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
			c := sc.candidate(i)
			sub, ppFloor, err := sc.subproblemFor(i)
			if err != nil {
				continue
			}
			lb := sc.lowerBound(c, &sub, ppFloor)
			minLB[i/bs] = min(minLB[i/bs], lb)
			plan, err := sc.solveSubproblem(i)
			if err != nil {
				continue
			}
			if lb > plan.IterTime*(1+pruneSlack) {
				t.Fatalf("%s nodes=%d %v: lower bound %g exceeds the produced plan's %g",
					s.Model.Name, s.Cluster.Nodes, c, lb, plan.IterTime)
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

// FuzzDiscreteBound checks discreteBound against brute force: for random
// weights, budgets, layer counts, memory floors and granules it must not
// exceed the objective at any constructible allocation — x and z
// positive multiples of their granules, y = unit·pp for a layer divisor
// pp at least the floor, x + y + z <= budget.
func FuzzDiscreteBound(f *testing.F) {
	// base, a, c, w0, w1, w2, k, budget, layers, floor, unit, me, mg
	f.Add(0.8, 3.0, 5.0, 3.0, 40.0, 5.0, uint16(29), uint8(96), uint8(40), uint8(2), uint8(8), uint8(0), uint8(0))
	f.Add(0.8, 3.5, 4.5, 3.0, 40.0, 5.0, uint16(239), uint8(127), uint8(80), uint8(4), uint8(16), uint8(1), uint8(3))
	f.Add(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, uint16(0), uint8(3), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(12.5, 1e-9, 1e9, 1e9, 1e-9, 1.0, uint16(65535), uint8(64), uint8(60), uint8(7), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, base, a, c, w0, w1, w2 float64, k uint16, budget, layers, floor, unit, me, mg uint8) {
		sub := fuzzSubproblem(base, a, c, w0, w1, w2, k)
		n := int(budget)%128 + 1
		sub.budget = float64(n)
		nLayers := int(layers)%96 + 1
		ppFloor := int(floor)%nLayers + 1
		u, wME, wMG := int(unit)%16+1, 1<<(me%4), 1<<(mg%4)
		ds := divisorsOf(nLayers)

		best := math.Inf(1)
		for _, pp := range ds.between(ppFloor, nLayers) {
			y := u * pp
			for x := wME; x+y+wMG <= n; x += wME {
				for z := wMG; x+y+z <= n; z += wMG {
					best = min(best, sub.objective(float64(x), float64(y), float64(z)))
				}
			}
		}
		lb := sub.discreteBound(u, ds.between(ppFloor, (n-wME-wMG)/u))
		if lb > best*(1+pruneSlack) {
			t.Fatalf("%+v unit=%d layers=%d floor=%d w_me=%d w_mg=%d: bound %g above the best constructible %g",
				sub, u, nLayers, ppFloor, wME, wMG, lb, best)
		}
	})
}

// FuzzBlockBound checks blockBound on one hand-built shape against
// its members: for random DP_lm, TP_lm, microbatch size, VPP, K,
// per-width C tables, budgets, layer counts and memory floors, the
// block's bound must not exceed any member's lowerBound — exactly, as
// the bound is the same IEEE arithmetic on operands no larger — nor,
// beyond pruneSlack, the objective at any allocation a member could
// build (brute force, as in FuzzDiscreteBound).
func FuzzBlockBound(f *testing.F) {
	// dp, tp, mb, vpp, k, budget, layers, floor, C_lm, C_me(1,2,4,8), C_mg(1,2,4,8)
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), uint16(29), uint8(96), uint8(40), uint8(2),
		3.0, 1.0, 0.6, 0.35, 0.2, 2.0, 1.1, 0.6, 0.3)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint16(239), uint8(127), uint8(80), uint8(4),
		40.0, 3.0, 3.5, 0.1, 9.0, 5.0, 0.2, 4.5, 7.0) // cheapest widths differ per module
	f.Add(uint8(15), uint8(3), uint8(3), uint8(3), uint16(0), uint8(64), uint8(60), uint8(7),
		1e-9, 1e9, 1e-9, 1.0, 1.0, 1e9, 1e9, 1e-9, 1.0) // K = 0: no microbatch
	f.Add(uint8(3), uint8(2), uint8(0), uint8(0), uint16(7), uint8(9), uint8(32), uint8(1),
		1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0) // budget too small for most members
	f.Fuzz(func(t *testing.T, dp, tp, mb, vpp uint8, k uint16, budget, layers, floor uint8,
		cLM, e0, e1, e2, e3, g0, g1, g2, g3 float64) {
		pos := func(v float64) float64 {
			v = math.Abs(v)
			if math.IsNaN(v) || v < 1e-9 {
				return 1e-9
			}
			return min(v, 1e9)
		}
		tpSizes := []int{1, 2, 4, 8}
		nLayers := int(layers)%96 + 1
		sh := shape{tp: tpSizes[tp%4], dp: int(dp)%16 + 1, k: int(k) % 1024, floor: int(floor)%nLayers + 1, cLM: pos(cLM)}
		s := Spec{Microbatch: int(mb)%4 + 1}
		s.GlobalBatch = sh.k * sh.dp * s.Microbatch
		sc := searchCtx{
			spec: &s, n: int(budget)%128 + 1, m: float64(s.Microbatch), vpp: int(vpp)%4 + 1,
			tpSizes: tpSizes, divisors: divisorsOf(nLayers), shapes: []shape{sh},
		}
		sc.cTrainTP[model.Encoder] = []float64{pos(e0), pos(e1), pos(e2), pos(e3)}
		sc.cTrainTP[model.Backbone] = []float64{sh.cLM, sh.cLM, sh.cLM, sh.cLM}
		sc.cTrainTP[model.Generator] = []float64{pos(g0), pos(g1), pos(g2), pos(g3)}

		bound := sc.blockBound(0)
		unit := sh.tp * sh.dp
		for i := range len(tpSizes) * len(tpSizes) {
			sub, ppFloor, err := sc.subproblemFor(i)
			if err != nil {
				continue
			}
			c := sc.candidate(i)
			if lb := sc.lowerBound(c, &sub, ppFloor); bound > lb {
				t.Fatalf("%+v %v: block bound %g above the member's lower bound %g", sh, c, bound, lb)
			}
			best := math.Inf(1)
			for _, pp := range sc.divisors.between(ppFloor, nLayers) {
				y := unit * pp
				for x := c.WME; x+y+c.WMG <= sc.n; x += c.WME {
					for z := c.WMG; x+y+z <= sc.n; z += c.WMG {
						best = min(best, sub.objective(float64(x), float64(y), float64(z)))
					}
				}
			}
			if bound > best*(1+pruneSlack) {
				t.Fatalf("%+v %v: block bound %g above the member's best constructible %g", sh, c, bound, best)
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
		if _, err := sc.solveSubproblem(i); err == nil {
			feasible = i
			break
		}
	}
	if feasible < 0 {
		t.Fatal("no feasible candidate")
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := sc.solveSubproblem(feasible); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("solveSubproblem: %.0f allocs per feasible candidate, budget 1", got)
	}

	// 7083 allocs/op were recorded for this cold search before the
	// kernel, 367 before phase 1 probed instead of solving its sample,
	// 344 while the engine planned a batch of specs, 325 while it
	// probed every 8th candidate and fanned the rest out over a worker
	// pool, 86 while the best-first search bounded every candidate and
	// 63 while each solve water-filled and rounded; the budget is the 31
	// the exact solve measures, plus 10%.
	if got := testing.AllocsPerRun(3, func() {
		if _, err := Search(context.Background(), s, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}); got > 34 {
		t.Errorf("cold search: %.0f allocs for %d candidates, budget 34", got, cands)
	}
}
