package solve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestBisect(t *testing.T) {
	got, err := bisect(0, 100, func(x float64) bool { return x >= 37.5 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-37.5) > 1e-9 {
		t.Errorf("bisect = %g, want 37.5", got)
	}
	if _, err := bisect(0, 10, func(float64) bool { return false }); err == nil {
		t.Error("bisect should fail when infeasible at hi")
	}
	if _, err := bisect(5, 1, func(float64) bool { return true }); err == nil {
		t.Error("bisect should reject empty interval")
	}
	// Feasible everywhere returns lo.
	got, err = bisect(2, 10, func(float64) bool { return true })
	if err != nil || got != 2 {
		t.Errorf("bisect trivial = %g, %v", got, err)
	}
}

func TestMinimizeConvex1D(t *testing.T) {
	got := MinimizeConvex1D(-10, 10, 1e-10, func(x float64) float64 { return (x - 3) * (x - 3) })
	if math.Abs(got-3) > 1e-6 {
		t.Errorf("minimiser = %g, want 3", got)
	}
	got = MinimizeConvex1D(0, 5, 1e-10, math.Exp) // monotone: edge minimum
	if math.Abs(got) > 1e-4 {
		t.Errorf("monotone minimiser = %g, want ~0", got)
	}
}

func TestWaterFillUnconstrained(t *testing.T) {
	// With no lower bounds the optimum allocates proportional to weight.
	p := WaterFillProblem{Weights: []float64{1, 2, 3}, Lower: []float64{0, 0, 0}, Budget: 60}
	x, obj, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	if math.Abs(obj-0.1) > 1e-9 {
		t.Errorf("objective = %g, want 0.1", obj)
	}
}

func TestWaterFillWithActiveLowerBounds(t *testing.T) {
	// Variable 0 is pinned above its proportional share; the others
	// split what remains proportionally.
	p := WaterFillProblem{Weights: []float64{1, 10, 10}, Lower: []float64{30, 0, 0}, Budget: 60}
	x, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if x[0] < 30-1e-9 {
		t.Errorf("x[0] = %g violates its lower bound", x[0])
	}
	if math.Abs(x[1]-x[2]) > 1e-6 {
		t.Errorf("equal weights should split equally: %g vs %g", x[1], x[2])
	}
	if total := x[0] + x[1] + x[2]; total > 60+1e-6 {
		t.Errorf("allocation %g exceeds budget", total)
	}
}

func TestWaterFillErrors(t *testing.T) {
	if _, _, err := (WaterFillProblem{}).Solve(); err == nil {
		t.Error("empty problem should fail")
	}
	bad := WaterFillProblem{Weights: []float64{1}, Lower: []float64{5}, Budget: 3}
	if _, _, err := bad.Solve(); err == nil {
		t.Error("infeasible lower bounds should fail")
	}
	neg := WaterFillProblem{Weights: []float64{-1}, Lower: []float64{0}, Budget: 3}
	if _, _, err := neg.Solve(); err == nil {
		t.Error("negative weight should fail")
	}
	mismatch := WaterFillProblem{Weights: []float64{1, 2}, Lower: []float64{0}, Budget: 3}
	if _, _, err := mismatch.Solve(); err == nil {
		t.Error("length mismatch should fail")
	}
}

// Property: the water-filling solution is optimal — no feasible random
// reallocation achieves a lower max(w_i/x_i).
func TestWaterFillOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objective := func(w, x []float64) float64 {
		worst := 0.0
		for i := range w {
			worst = math.Max(worst, w[i]/x[i])
		}
		return worst
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(4) + 2
		w := make([]float64, n)
		lower := make([]float64, n)
		var lowSum float64
		for i := range w {
			w[i] = rng.Float64()*9 + 1
			lower[i] = rng.Float64() * 3
			lowSum += lower[i]
		}
		budget := lowSum + rng.Float64()*20 + 1
		p := WaterFillProblem{Weights: w, Lower: lower, Budget: budget}
		x, obj, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(objective(w, x)-obj) > 1e-6*obj {
			t.Fatalf("reported objective %g != recomputed %g", obj, objective(w, x))
		}
		// Random feasible competitor: never better than the solver.
		for k := 0; k < 20; k++ {
			comp := make([]float64, n)
			rem := budget - lowSum
			weights := make([]float64, n)
			var wsum float64
			for i := range weights {
				weights[i] = rng.Float64() + 0.01
				wsum += weights[i]
			}
			for i := range comp {
				comp[i] = lower[i] + rem*weights[i]/wsum
			}
			if objective(w, comp) < obj*(1-1e-9) {
				t.Fatalf("random competitor beat the solver: %g < %g", objective(w, comp), obj)
			}
		}
	}
}

func TestRoundAllocation(t *testing.T) {
	x := []float64{10.7, 21.9, 30.2}
	w := []float64{1, 2, 3}
	g := []int{4, 8, 2}
	out := RoundAllocation(x, w, g, 63)
	total := 0
	for i, v := range out {
		if v%g[i] != 0 {
			t.Errorf("out[%d] = %d not a multiple of %d", i, v, g[i])
		}
		if v < g[i] {
			t.Errorf("out[%d] = %d below one granule", i, v)
		}
		total += v
	}
	if total > 63 {
		t.Errorf("total %d exceeds budget", total)
	}
}

// Property: rounding respects granularity, minimum granule, and budget
// whenever the budget admits one granule per variable.
func TestRoundAllocationInvariants(t *testing.T) {
	f := func(seeds [3]uint8, budgetRaw uint8) bool {
		g := []int{int(seeds[0]%8) + 1, int(seeds[1]%8) + 1, int(seeds[2]%8) + 1}
		minBudget := g[0] + g[1] + g[2]
		budget := minBudget + int(budgetRaw)
		x := []float64{float64(seeds[0]) + 1, float64(seeds[1]) + 1, float64(seeds[2]) + 1}
		w := []float64{1, 1, 1}
		out := RoundAllocation(x, w, g, budget)
		total := 0
		for i, v := range out {
			if v%g[i] != 0 || v < g[i] {
				return false
			}
			total += v
		}
		return total <= budget
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSolveReentrancy pins the package doc's concurrency guarantee:
// every entry point is a pure function, so concurrent callers sharing
// the same problem values must race-cleanly produce identical results.
// Run under -race (the CI race gate does).
func TestSolveReentrancy(t *testing.T) {
	p := WaterFillProblem{
		Weights: []float64{3.2, 120.5, 7.8},
		Lower:   []float64{1, 64, 1},
		Budget:  1296,
	}
	refX, refT, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	refRound := RoundAllocation(refX, p.Weights, []int{1, 8, 1}, 1296)
	refMin := MinimizeConvex1D(0, 10, 1e-6, func(x float64) float64 { return (x - 3) * (x - 3) })

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x, tt, err := p.Solve()
				if err != nil {
					errs <- err
					return
				}
				if tt != refT || !reflect.DeepEqual(x, refX) {
					errs <- fmt.Errorf("Solve diverged: got (%v, %g), want (%v, %g)", x, tt, refX, refT)
					return
				}
				if r := RoundAllocation(x, p.Weights, []int{1, 8, 1}, 1296); !reflect.DeepEqual(r, refRound) {
					errs <- fmt.Errorf("RoundAllocation diverged: got %v, want %v", r, refRound)
					return
				}
				if m := MinimizeConvex1D(0, 10, 1e-6, func(x float64) float64 { return (x - 3) * (x - 3) }); m != refMin {
					errs <- fmt.Errorf("MinimizeConvex1D diverged: got %g, want %g", m, refMin)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
