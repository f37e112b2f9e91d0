package orchestrator

import (
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/profiler"
)

// heteroSpec places the modality encoder on the cheaper L20-class SKU
// (§8: "we can place ViT encoder on more economical GPUs, e.g. NVIDIA
// L20").
func heteroSpec(t *testing.T, m model.MLLM, nodes, bs int) Spec {
	t.Helper()
	cl := cluster.Production(nodes)
	opts := profiler.DefaultOptions(cl, m)
	opts.ModuleGPUs = map[model.Module]cluster.GPUSpec{
		model.Encoder: cluster.L20Class,
	}
	p, err := profiler.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		t.Fatal(err)
	}
	return Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}
}

// The §8 deployment: an encoder on slower, cheaper GPUs is still
// plannable, and the adaptive algorithm compensates with a larger
// encoder allocation.
func TestHeterogeneousHardwareOrchestration(t *testing.T) {
	homo := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	hetero := heteroSpec(t, model.MLLM9B(), 12, 96)

	// The profiler must price the encoder slower on L20s and leave the
	// backbone untouched.
	shape := model.SampleShape{ImageTokens: []int{1024, 1024}, GenImages: 1}
	encHomo := homo.Profiler.SampleForward(model.Encoder, 1, shape)
	encHet := hetero.Profiler.SampleForward(model.Encoder, 1, shape)
	if encHet <= encHomo {
		t.Fatalf("encoder on L20 (%.3fms) should be slower than on Ampere (%.3fms)",
			encHet*1e3, encHomo*1e3)
	}
	wantRatio := cluster.AmpereSXM.PeakFLOPS / cluster.L20Class.PeakFLOPS
	if got := encHet / encHomo; got < wantRatio*0.99 || got > wantRatio*1.01 {
		t.Errorf("slowdown = %.2fx, want the peak-FLOPS ratio %.2fx", got, wantRatio)
	}
	if hetero.Profiler.SampleForward(model.Backbone, 8, shape) !=
		homo.Profiler.SampleForward(model.Backbone, 8, shape) {
		t.Error("backbone pricing must not change")
	}

	ph, err := PlanDistTrain(homo)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PlanDistTrain(hetero)
	if err != nil {
		t.Fatal(err)
	}
	// Cheaper encoder silicon cannot be free...
	if pt.IterTime < ph.IterTime*(1-1e-9) {
		t.Errorf("hetero plan %.3fs beat homogeneous %.3fs", pt.IterTime, ph.IterTime)
	}
	// ...but the adaptive orchestration compensates (reshaping the
	// encoder unit and rebalancing allocations), so the end-to-end
	// slowdown stays far below the 2.6x raw encoder slowdown — the
	// §8 value proposition for heterogeneous deployments.
	if pt.IterTime > ph.IterTime*1.5 {
		t.Errorf("orchestration failed to absorb the slow SKU: %.3fs vs %.3fs (%.2fx)",
			pt.IterTime, ph.IterTime, pt.IterTime/ph.IterTime)
	}
	checkPlanFeasible(t, hetero, pt)
}

// Memory constraints must be evaluated against each module's own SKU:
// a backbone "placed" on 48 GB L20s needs deeper pipelining than on
// 80 GB parts.
func TestHeterogeneousMemoryBudget(t *testing.T) {
	cl := cluster.Production(12)
	m := model.MLLM72B()
	opts := profiler.DefaultOptions(cl, m)
	opts.ModuleGPUs = map[model.Module]cluster.GPUSpec{
		model.Backbone: cluster.L20Class,
	}
	p, err := profiler.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, _ := data.NewCorpus(data.LAION400M())
	if err := p.Calibrate(corpus, 100); err != nil {
		t.Fatal(err)
	}
	small := Spec{Cluster: cl, Model: m, GlobalBatch: 40, Microbatch: 1, Profiler: p, VPP: 1}

	big := newSpec(t, m, 12, 40, model.FullTraining)
	bigCtx, smallCtx := newSearchCtx(&big), newSearchCtx(&small)
	floorBig, err := bigCtx.llmMemoryFloor(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	floorSmall, err := smallCtx.llmMemoryFloor(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if floorSmall <= floorBig {
		t.Errorf("48GB SKU should force deeper PP: floor %d vs %d on 80GB", floorSmall, floorBig)
	}
}
