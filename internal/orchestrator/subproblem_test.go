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
	"disttrain/internal/solve"
)

// The oracle: the closure-based formulation the subproblem kernel
// replaced, kept verbatim. The kernel's contract is bit-identity with
// it — same floating-point operations in the same order — so every
// comparison below is on math.Float64bits, never a tolerance.

type oracle struct {
	warmup    func(x, z float64) float64
	objective func(x, y, z float64) float64
}

func newOracle(base, a, c float64, weights []float64, kk float64) oracle {
	warmup := func(x, z float64) float64 {
		return base + a/x + c/z
	}
	objective := func(x, y, z float64) float64 {
		steady := math.Max(weights[0]/x, math.Max(weights[1]/y, weights[2]/z)) * kk
		return warmup(x, z) + steady
	}
	return oracle{warmup, objective}
}

// oracleRefine performs nested golden-section over (x, z) with y =
// budget - x - z, honouring lower bounds; it returns the better of the
// seed and the refined point.
func oracleRefine(objective func(x, y, z float64) float64, seed, lower []float64, budget float64) []float64 {
	evalAt := func(x, z float64) float64 {
		y := budget - x - z
		if y < lower[1] {
			return math.Inf(1)
		}
		return objective(x, y, z)
	}
	xHi := budget - lower[1] - lower[2]
	if xHi <= lower[0] {
		return seed
	}
	bestX := solve.MinimizeConvex1D(lower[0], xHi, 1e-4, func(x float64) float64 {
		zHi := budget - lower[1] - x
		if zHi <= lower[2] {
			return math.Inf(1)
		}
		z := solve.MinimizeConvex1D(lower[2], zHi, 1e-4, func(z float64) float64 { return evalAt(x, z) })
		return evalAt(x, z)
	})
	zHi := budget - lower[1] - bestX
	if zHi <= lower[2] {
		return seed
	}
	bestZ := solve.MinimizeConvex1D(lower[2], zHi, 1e-4, func(z float64) float64 { return evalAt(bestX, z) })

	refined := []float64{bestX, budget - bestX - bestZ, bestZ}
	if evalAt(bestX, bestZ) <= objective(seed[0], seed[1], seed[2]) {
		return refined
	}
	return seed
}

//go:noinline
func mulAdd(x, y, z float64) float64 { return x*y + z }

// skipIfFused skips on targets where the compiler fuses x*y + z into
// one rounding (arm64, ppc64le, s390x, riscv64, GOAMD64=v3): there the
// fusion choices of two differently shaped functions need not agree,
// and bit-identity between oracle and kernel is not defined.
func skipIfFused(t testing.TB) {
	x := float64(1<<27 + 1)
	if mulAdd(x, x, -(x*x)) != 0 {
		t.Skip("compiler fuses multiply-add on this target")
	}
}

type bitMismatch struct {
	what      string
	got, want float64
}

// compareKernel checks every kernel method against the oracle on one
// subproblem and returns the first mismatch.
func compareKernel(sub *subproblem, seed []float64) *bitMismatch {
	weights, lower := sub.w[:], sub.lower[:]
	n, kk := sub.budget, sub.kk
	o := newOracle(sub.base, sub.a, sub.c, weights, kk)
	var bad *bitMismatch
	check := func(what string, got, want float64) {
		if bad == nil && math.Float64bits(got) != math.Float64bits(want) {
			bad = &bitMismatch{what, got, want}
		}
	}

	// The objective at the integer corner, as the prune evaluates it.
	sumLower := lower[0] + lower[1] + lower[2]
	ux := math.Floor(n - (sumLower - lower[0]))
	uy := math.Floor(n - (sumLower - lower[1]))
	uz := math.Floor(n - (sumLower - lower[2]))
	check("integer corner", sub.objective(ux, uy, uz), o.objective(ux, uy, uz))

	want := oracleRefine(o.objective, seed, lower, n)
	got := sub.refine([3]float64{seed[0], seed[1], seed[2]})
	for i, axis := range []string{"refine x", "refine y", "refine z"} {
		check(axis, got[i], want[i])
	}
	return bad
}

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

// Every candidate of every plan-sweep-shaped spec: the kernel's
// constants equal the expressions solveSubproblem used to evaluate
// inline, and objective and refine match the oracle bit for bit.
func TestSubproblemKernelMatchesOracle(t *testing.T) {
	skipIfFused(t)
	specs := sweepSpecs(t)
	if testing.Short() {
		specs = specs[:6]
	}
	for _, s := range specs {
		s := s
		sc := newSearchCtx(&s)
		solved := 0
		for _, c := range sc.strategySet() {
			sub, _, err := sc.subproblemFor(c)
			if err != nil {
				continue
			}
			m := float64(s.Microbatch)
			cLM := s.Profiler.CTrain(model.Backbone, c.TPLM)
			cME := s.Profiler.CTrain(model.Encoder, c.WME)
			cMG := s.Profiler.CTrain(model.Generator, c.WMG)
			want := subproblem{
				base: m * cLM / float64(s.vpp()),
				a:    float64(c.DPLM) * m * float64(c.WME) * cME,
				c:    float64(c.DPLM) * m * float64(c.WMG) * cMG,
				w: [3]float64{
					float64(c.DPLM) * float64(c.WME) * m * cME,
					float64(c.DPLM) * float64(c.TPLM) * m * cLM,
					float64(c.DPLM) * float64(c.WMG) * m * cMG,
				},
				kk:     float64(s.GlobalBatch/(c.DPLM*s.Microbatch) - 1),
				budget: float64(s.maxGPUs()),
				lower:  sub.lower,
			}
			if sub != want {
				t.Fatalf("%s %v: kernel constants %+v, want %+v", s.Model.Name, c, sub, want)
			}
			wf := solve.WaterFillProblem{Weights: sub.w[:], Lower: sub.lower[:], Budget: sub.budget}
			seed, _, err := wf.Solve()
			if err != nil {
				continue
			}
			if bad := compareKernel(&sub, seed); bad != nil {
				t.Fatalf("%s nodes=%d %v: %s = %x, oracle %x", s.Model.Name, s.Cluster.Nodes, c,
					bad.what, math.Float64bits(bad.got), math.Float64bits(bad.want))
			}
			solved++
		}
		if solved == 0 {
			t.Errorf("%s nodes=%d: no candidate reached the kernel", s.Model.Name, s.Cluster.Nodes)
		}
	}
}

// fuzzSubproblem maps arbitrary fuzz inputs onto the kernel's domain:
// positive finite weights and lower bounds that fit the budget.
func fuzzSubproblem(base, a, c, w0, w1, w2, l0, l1, l2, slack float64, k uint16) (subproblem, bool) {
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
	sub := subproblem{
		base: pos(base, 0, 1e6),
		a:    pos(a, 1e-9, 1e9), c: pos(c, 1e-9, 1e9),
		w:     [3]float64{pos(w0, 1e-9, 1e9), pos(w1, 1e-9, 1e9), pos(w2, 1e-9, 1e9)},
		kk:    float64(k),
		lower: [3]float64{pos(l0, 1e-3, 1e5), pos(l1, 1e-3, 1e5), pos(l2, 1e-3, 1e5)},
	}
	sub.budget = sub.lower[0] + sub.lower[1] + sub.lower[2] + pos(slack, 0, 1e6)
	return sub, sub.lower[0]+sub.lower[1]+sub.lower[2] <= sub.budget
}

// FuzzSubproblemRefine drives kernel and oracle with random weights,
// lower bounds, budgets and K, including warm-up numerators that differ
// from the steady weights (the path where c/z cannot be shared).
func FuzzSubproblemRefine(f *testing.F) {
	skipIfFused(f)
	// base, a, c, w0, w1, w2, l0, l1, l2, slack, k
	f.Add(0.8, 3.0, 5.0, 3.0, 40.0, 5.0, 1.0, 16.0, 1.0, 100.0, uint16(29))   // shared numerators
	f.Add(0.8, 3.5, 4.5, 3.0, 40.0, 5.0, 2.0, 64.0, 8.0, 1200.0, uint16(239)) // distinct numerators
	f.Add(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, uint16(0))        // no slack, K = 1
	f.Add(12.5, 1e-9, 1e9, 1e9, 1e-9, 1.0, 1e-3, 1e5, 8.0, 1e6, uint16(65535))
	f.Add(0.02, 0.7, 0.7, 0.7, 96.0, 0.7, 8.0, 640.0, 8.0, 0.5, uint16(7)) // bracket narrower than the tolerance
	f.Fuzz(func(t *testing.T, base, a, c, w0, w1, w2, l0, l1, l2, slack float64, k uint16) {
		sub, ok := fuzzSubproblem(base, a, c, w0, w1, w2, l0, l1, l2, slack, k)
		if !ok {
			t.Skip()
		}
		wf := solve.WaterFillProblem{Weights: sub.w[:], Lower: sub.lower[:], Budget: sub.budget}
		seed, _, err := wf.Solve()
		if err != nil {
			t.Skip()
		}
		if bad := compareKernel(&sub, seed); bad != nil {
			t.Fatalf("%+v: %s = %x (%g), oracle %x (%g)", sub, bad.what,
				math.Float64bits(bad.got), bad.got, math.Float64bits(bad.want), bad.want)
		}
	})
}

// The prune's lower bound — integer corner and discreteBound — never
// exceeds the time of the plan a candidate actually produces, on every
// candidate of the plan-sweep specs one node either side of Table 3's
// sizes and of the two-phase gate's shapes. Only float ordering may
// separate them, and by less than pruneSlack.
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
		checked := 0
		for _, c := range sc.strategySet() {
			sub, ppFloor, err := sc.subproblemFor(c)
			if err != nil {
				continue
			}
			plan, err := sc.solveSubproblem(c, math.Inf(1), true)
			if err != nil {
				continue
			}
			if lb := sc.lowerBound(c, &sub, ppFloor); lb > plan.IterTime*(1+pruneSlack) {
				t.Fatalf("%s nodes=%d %v: lower bound %g exceeds the produced plan's %g",
					s.Model.Name, s.Cluster.Nodes, c, lb, plan.IterTime)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s nodes=%d: no candidate produced a plan", s.Model.Name, s.Cluster.Nodes)
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
		sub, _ := fuzzSubproblem(base, a, c, w0, w1, w2, 1, 1, 1, 0, k)
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

// Allocation budgets, pinned by tier-1 and not only by bench-diff: one
// feasible candidate costs the water-fill's allocation vector, the
// rounded allocation and the Plan; a cold search costs that per
// evaluated candidate plus its per-search tables.
func TestPlanSearchAllocBudget(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining) // BenchmarkWarmPlanSearch's spec
	sc := newSearchCtx(&s)
	cands := sc.strategySet()
	var feasible *Candidate
	for i := range cands {
		if _, err := sc.solveSubproblem(cands[i], math.Inf(1), true); err == nil {
			feasible = &cands[i]
			break
		}
	}
	if feasible == nil {
		t.Fatal("no feasible candidate")
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := sc.solveSubproblem(*feasible, math.Inf(1), true); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("solveSubproblem: %.0f allocs per feasible candidate, budget 3", got)
	}

	// 7083 allocs/op were recorded for this cold search before the
	// kernel, 367 before phase 1 probed instead of solving its sample;
	// the budget is the 344 measured since, plus 10%.
	opts := SearchOptions{Parallelism: 1}
	if got := testing.AllocsPerRun(3, func() {
		if _, err := planOne(context.Background(), s, opts); err != nil {
			t.Fatal(err)
		}
	}); got > 378 {
		t.Errorf("cold PlanMany: %.0f allocs for %d candidates, budget 378", got, len(cands))
	}
}
