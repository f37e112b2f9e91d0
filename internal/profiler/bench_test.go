package profiler_test

import (
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
)

// pricingFixture is the fleet-steady pricing problem: MLLM-9B on a
// 2-node lease, its DistTrain plan's three rates, and one LAION sample.
func pricingFixture(tb testing.TB) (*profiler.Profiler, [3]profiler.Rate, data.Sample) {
	tb.Helper()
	cl, m := cluster.Production(2), model.MLLM9B()
	p, err := profiler.New(profiler.DefaultOptions(cl, m))
	if err != nil {
		tb.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		tb.Fatal(err)
	}
	plan, err := orchestrator.PlanDistTrain(orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: 32, Microbatch: 1, Profiler: p, VPP: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var rates [3]profiler.Rate
	for mod, mp := range plan.Modules {
		rates[mod] = p.Resolve(model.Module(mod), mp.Config.ModelParallelWidth())
	}
	return p, rates, corpus.Sample(7)
}

// priceSample is what one sample costs the trainer per pricing: walk
// its images into a workload, then forward and train seconds of all
// three modules at the plan's widths.
func priceSample(p *profiler.Profiler, rates *[3]profiler.Rate, s data.Sample) float64 {
	var w model.Workload
	s.AddTo(&w, p.Kernel())
	var sum float64
	for i := range rates {
		fwd, train := rates[i].Price(w)
		sum += fwd + train
	}
	return sum
}

var pricingSink float64

// BenchmarkSamplePricing is the profiler's layer benchmark: one LAION
// sample, all three modules, forward + train at the 9B plan's widths.
func BenchmarkSamplePricing(b *testing.B) {
	p, rates, s := pricingFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pricingSink += priceSample(p, &rates, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
}

// TestSamplePricingAllocFree pins the per-sample path's allocation
// budget: none, through resolved rates or through SampleCost.
func TestSamplePricingAllocFree(t *testing.T) {
	p, rates, s := pricingFixture(t)
	if got := testing.AllocsPerRun(100, func() {
		pricingSink += priceSample(p, &rates, s)
		var w model.Workload
		s.AddTo(&w, p.Kernel())
		pricingSink += p.SampleCost(w)
	}); got != 0 {
		t.Errorf("pricing one sample allocated %v times, budget 0", got)
	}
}
