package trainer

import (
	"math"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
)

// The runtime's pricing as it read before the plan's rates were
// resolved once and samples were walked directly: every call asks the
// profiler again and aggregates a microbatch into a concatenated
// shape first. Verbatim but for the scratch buffers and the FLOPs,
// which come from a kernel compiled per call; the profiler's
// SampleForward/SampleTrain and that kernel are themselves held to the
// uncompiled formulas by FuzzSamplePricing.

func refMicrobatchWorkInto(r *Runtime, shape model.SampleShape, fwd, bwd []float64) {
	spec := r.cls.spec
	plan := r.cls.plan
	p := spec.Profiler
	mbs := float64(spec.Microbatch)
	dpLM := float64(plan.Modules[model.Backbone].Config.DP)

	// Encoder stage: per-LLM-rank share of the encoder pool.
	enc := plan.Modules[model.Encoder]
	wE := enc.Config.ModelParallelWidth()
	scaleE := float64(wE) * dpLM * mbs / float64(enc.GPUs())
	fwdE := p.SampleForward(model.Encoder, wE, shape)
	totE := p.SampleTrain(model.Encoder, wE, shape)
	fwd[0] = fwdE * scaleE
	bwd[0] = (totE - fwdE) * scaleE

	// LLM stages: homogeneous across microbatches (fixed-length packed
	// sequences, §2.3).
	lm := plan.Modules[model.Backbone]
	fwdL := p.SampleForward(model.Backbone, lm.Config.ModelParallelWidth(), shape)
	totL := p.SampleTrain(model.Backbone, lm.Config.ModelParallelWidth(), shape)
	perStageF := fwdL * mbs / float64(lm.Config.PP)
	perStageB := (totL - fwdL) * mbs / float64(lm.Config.PP)
	for s := llmFirst; s < r.cls.genStage; s++ {
		fwd[s] = perStageF
		bwd[s] = perStageB
	}

	// Generator stage.
	gen := plan.Modules[model.Generator]
	wG := gen.Config.ModelParallelWidth()
	scaleG := float64(wG) * dpLM * mbs / float64(gen.GPUs())
	fwdG := p.SampleForward(model.Generator, wG, shape)
	totG := p.SampleTrain(model.Generator, wG, shape)
	fwd[r.cls.genStage] = fwdG * scaleG
	bwd[r.cls.genStage] = (totG - fwdG) * scaleG
}

func refSampleCost(r *Runtime, s data.Sample) float64 {
	p := r.cls.prof
	sh := s.Shape()
	return p.SampleTrain(model.Encoder, 1, sh) + p.SampleTrain(model.Generator, 1, sh)
}

func refIterationFLOPs(r *Runtime, batch []data.Sample) float64 {
	freeze := r.cls.prof.Options().Freeze
	var total float64
	for _, s := range batch {
		shape := s.Shape()
		for _, mod := range model.Modules {
			k := r.cls.spec.Model.Compile(freeze)
			fwd, bwd := k.TrainFLOPs(mod, k.Fold(shape))
			total += fwd + bwd
		}
	}
	return total
}

func refAggregateShape(samples []data.Sample) model.SampleShape {
	var out model.SampleShape
	for _, s := range samples {
		out.ImageTokens = append(out.ImageTokens, s.ImageTokenSizes()...)
		out.GenImages += s.GenImages
	}
	return out
}

// TestRuntimePricingMatchesReference holds the resolved-once pricing
// to the reference, bit for bit, on real batches: every microbatch's
// per-stage times at M = 1 and on aggregated M = 3 microbatches, the
// Algorithm 1 sample cost and the iteration FLOPs, under a DistTrain
// plan (replicated width-1 modality modules) and the Megatron plan
// (width 8), full and frozen training.
func TestRuntimePricingMatchesReference(t *testing.T) {
	for _, name := range []string{"full", "llm-only"} {
		freeze, err := model.FreezeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec, corpus := buildSpec(t, model.MLLM9B(), 4, 48, freeze)
		for _, m := range []int{1, 3} {
			spec.Microbatch = m
			for _, planner := range []func(orchestrator.Spec) (*orchestrator.Plan, error){
				orchestrator.PlanDistTrain, orchestrator.PlanMegatron,
			} {
				plan, err := planner(spec)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := New(DistTrainConfig(spec, plan, corpus))
				if err != nil {
					t.Fatal(err)
				}
				batch := corpus.GlobalBatch(2, spec.GlobalBatch)
				stages := rt.cls.stages
				got, want := make([]float64, 2*stages), make([]float64, 2*stages)
				for j := 0; j+m <= len(batch); j += m {
					var w model.Workload
					for _, s := range batch[j : j+m] {
						s.AddTo(&w, spec.Profiler.Kernel())
					}
					rt.cls.microbatchWorkInto(w, got[:stages], got[stages:])
					refMicrobatchWorkInto(rt, refAggregateShape(batch[j:j+m]), want[:stages], want[stages:])
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s %s M=%d microbatch at %d, stage slot %d: got %v, reference %v",
								freeze.Name, plan.Strategy, m, j, i, got[i], want[i])
						}
					}
				}
				if got, want := rt.iterationFLOPs(batch), refIterationFLOPs(rt, batch); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s M=%d iterationFLOPs: got %v, reference %v", freeze.Name, plan.Strategy, m, got, want)
				}
				for _, s := range batch {
					var w model.Workload
					s.AddTo(&w, spec.Profiler.Kernel())
					if got, want := spec.Profiler.SampleCost(w), refSampleCost(rt, s); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("sample %d cost: got %v, reference %v", s.Index, got, want)
					}
				}
				rt.Close()
			}
		}
	}
}
