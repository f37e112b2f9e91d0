package orchestrator

import (
	"errors"
	"fmt"
	"math"

	"disttrain/internal/model"
	"disttrain/internal/parallel"
)

// searchCtx is everything about one spec that all of its candidates
// share, derived once: a §4.3 search scores ~1400 strategy combinations
// against the same spec, and none of them should copy the 512-byte
// Spec, re-validate it, re-query the profiler or re-derive
// model FLOPs. The exported CheckMemory builds one for a single plan,
// so searched and hand-built plans are checked by the same arithmetic.
//
// A searchCtx is read-only once built and safe to share across the
// search's workers. It assumes spec.Validate() passed.
type searchCtx struct {
	spec     *Spec
	n        int     // GPU budget
	m        float64 // microbatch size M
	vpp      int
	tpSizes  []int
	cTrainTP [3][]float64 // C_mod(width) for every width in tpSizes
	divisors divisorTable // of the backbone's layer count
	mem      [3]moduleMemory
	mfuFLOPs float64 // model FLOPs per iteration, the MFU estimate's numerator
	// floors holds llmMemoryFloor per backbone shape {TP, DP} of the
	// strategy set; filled by strategySet, nil for a context that only
	// evaluates plans.
	floors map[[2]int]ppFloor
}

// moduleMemory is the plan-independent half of one module's §4.2
// memory constraint.
type moduleMemory struct {
	budget float64 // per-GPU capacity of the cluster's SKU, less the 8% runtime reserve
	act    float64 // activation bytes of one microbatch across the whole module
	params float64
	frozen bool
}

type ppFloor struct {
	pp  int
	err error
}

func newSearchCtx(s *Spec) searchCtx {
	opts := s.Profiler.Options()
	shape := s.Profiler.MeanShape()
	kern := s.Profiler.Kernel()
	work := kern.Fold(shape)
	sc := searchCtx{
		spec:     s,
		n:        s.maxGPUs(),
		m:        float64(s.Microbatch),
		vpp:      s.vpp(),
		tpSizes:  parallel.TPSizes(s.Cluster.GPUsPerNode),
		divisors: divisorsOf(s.Model.Backbone.Layers),
	}
	for _, mod := range model.Modules {
		sc.cTrainTP[mod] = make([]float64, len(sc.tpSizes))
		for i, tp := range sc.tpSizes {
			sc.cTrainTP[mod][i] = s.Profiler.CTrain(mod, tp)
		}
		fwd, bwd := kern.TrainFLOPs(mod, work)
		sc.mfuFLOPs += (fwd + bwd) * float64(s.GlobalBatch)
		sc.mem[mod] = moduleMemory{
			budget: opts.Cluster.GPU.MemoryBytes * 0.92,
			params: s.Model.Params(mod),
			frozen: opts.Freeze.Frozen(mod),
		}
	}
	sc.mem[model.Encoder].act = s.Model.Encoder.ActivationBytesPerToken() * float64(shape.TotalImageTokens()) * float64(s.Microbatch)
	sc.mem[model.Backbone].act = s.Model.Backbone.ActivationBytesPerToken() * float64(s.Model.SeqLen) * float64(s.Microbatch)
	sc.mem[model.Generator].act = s.Model.Generator.ActivationBytesPerImage(s.Model.GenResolution) *
		float64(max(shape.GenImages, 1)) * float64(s.Microbatch)
	return sc
}

// cTrain is Profiler.CTrain served from the per-search table; widths
// outside the §4.3 strategy set (a hand-built plan's odd TP) go to the
// profiler.
func (sc *searchCtx) cTrain(mod model.Module, width int) float64 {
	for i, tp := range sc.tpSizes {
		if tp == width {
			return sc.cTrainTP[mod][i]
		}
	}
	return sc.spec.Profiler.CTrain(mod, width)
}

// strategySet enumerates the spec's candidates and records the backbone
// memory floor of every shape among them: the floor depends only on
// (TP, DP), and the 16 (w_me, w_mg) combinations of one shape all need
// it. Call it before the context is shared with workers.
func (sc *searchCtx) strategySet() []Candidate {
	cands := enumerateCandidates(*sc.spec, sc.n)
	sc.floors = make(map[[2]int]ppFloor)
	for _, c := range cands {
		shape := [2]int{c.TPLM, c.DPLM}
		if _, ok := sc.floors[shape]; !ok {
			pp, err := sc.llmMemoryFloor(c.TPLM, c.DPLM)
			sc.floors[shape] = ppFloor{pp, err}
		}
	}
	return cands
}

// llmMemoryFloor returns the minimum PP for the backbone at (tp, dp):
// the smallest divisor of the layer count whose per-GPU footprint fits.
func (sc *searchCtx) llmMemoryFloor(tp, dp int) (int, error) {
	for _, pp := range sc.divisors {
		mp := ModulePlan{Module: model.Backbone, Config: parallel.Plain(tp, pp, dp)}
		if sc.fits(&mp) {
			return pp, nil
		}
	}
	return 0, fmt.Errorf("orchestrator: %s cannot fit at TP=%d DP=%d", sc.spec.Model.Backbone.Name, tp, dp)
}

// footprint is one module's §4.2 per-GPU memory: parameters+gradients,
// ZeRO-1 optimizer shards and 1F1B peak activations.
func (sc *searchCtx) footprint(mp *ModulePlan) float64 {
	mem := &sc.mem[mp.Module]
	gpus := mp.Config.GPUs()
	dp := mp.Config.DP
	if mp.Replicated {
		// Every GPU of a replicated group holds a full model copy.
		dp = gpus / mp.Config.PP
	}
	return model.MemoryForParams(mem.params, gpus, dp, mp.Config.PP, mem.act, mem.frozen).Total()
}

// fits enforces the §4.2 memory constraint for one module: its
// footprint must not exceed the per-GPU budget. The search's floor scan
// calls it for every divisor that does not fit, so it reports a bool;
// checkMemory words the rejection. Written as "not over" so that an
// empty hand-built module's NaN footprint passes, as it always has.
func (sc *searchCtx) fits(mp *ModulePlan) bool {
	return !(sc.footprint(mp) > sc.mem[mp.Module].budget)
}

func (sc *searchCtx) checkMemory(p *Plan) error {
	for i := range p.Modules {
		if mp := &p.Modules[i]; !sc.fits(mp) {
			return fmt.Errorf("orchestrator: %v needs %.1f GiB/GPU, capacity %.1f GiB",
				mp.Module, sc.footprint(mp)/(1<<30), sc.mem[mp.Module].budget/(1<<30))
		}
	}
	return nil
}

// stageTime returns T_mod: the per-PP-stage time of the module for one
// microbatch, using the paper's §4.2 formulas with the fwd+bwd C
// functions.
func (sc *searchCtx) stageTime(mp *ModulePlan, dpLM int) float64 {
	width := mp.Config.ModelParallelWidth()
	c := sc.cTrain(mp.Module, width)
	if mp.Module == model.Backbone {
		return c * sc.m / float64(mp.Config.PP)
	}
	// T = DP_lm * TP * M / alloc * C(TP)  (alloc = TP*DP*PP)
	return float64(dpLM) * float64(width) * sc.m * c / float64(mp.Config.GPUs())
}

// evaluate scores a candidate plan with the Eq. 1 + Eq. 2 objective and
// fills in the estimate fields. It returns an error when the plan
// violates resource or memory constraints.
func (sc *searchCtx) evaluate(p *Plan) error {
	s := sc.spec
	dpLM := p.Modules[model.Backbone].Config.DP
	if dpLM <= 0 {
		return errors.New("orchestrator: plan has no backbone DP")
	}
	total := p.Modules[0].GPUs() + p.Modules[1].GPUs() + p.Modules[2].GPUs() // TotalGPUs, without its by-value Plan
	if total > sc.n {
		return fmt.Errorf("orchestrator: plan wants %d GPUs, budget %d", total, sc.n)
	}
	if s.GlobalBatch%(dpLM*s.Microbatch) != 0 {
		return fmt.Errorf("orchestrator: DP_lm*M=%d does not divide BS=%d", dpLM*s.Microbatch, s.GlobalBatch)
	}
	p.Microbatches = s.GlobalBatch / (dpLM * s.Microbatch)

	if err := sc.checkMemory(p); err != nil {
		return err
	}

	// Eq. 1: warm-up = sum over modules of T_mod * PP_mod, with the LLM
	// term divided by VPP (§4.3).
	var warmup, steady float64
	for i := range p.Modules {
		mp := &p.Modules[i]
		t := sc.stageTime(mp, dpLM)
		w := t * float64(mp.Config.PP)
		if mp.Module == model.Backbone {
			w /= float64(sc.vpp)
		}
		warmup += w
		if t > steady {
			steady = t
		}
	}
	// Eq. 2: steady phase = bottleneck stage time * (microbatches - 1).
	steady *= float64(p.Microbatches - 1)

	p.Warmup, p.Steady = warmup, steady
	p.IterTime = warmup + steady
	// MFU: model FLOPs executed per iteration over fleet capacity for the
	// estimated iteration time.
	p.EstMFU = 0
	if p.IterTime > 0 {
		p.EstMFU = sc.mfuFLOPs / (float64(total) * s.Cluster.GPU.PeakFLOPS * p.IterTime)
	}
	p.Brokers[0] = gcd(p.Modules[model.Encoder].Config.DP, dpLM)
	p.Brokers[1] = gcd(dpLM, p.Modules[model.Generator].Config.DP)
	return nil
}

// divisorTable is the ascending list of a layer count's divisors: the
// backbone's PP must be one of them.
type divisorTable []int

func divisorsOf(layers int) divisorTable {
	var ds divisorTable
	for d := 1; d <= layers; d++ {
		if layers%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// between returns the divisors in [floor, cap], ascending: the PP
// sizes a backbone with that memory floor can take within cap stages.
func (ds divisorTable) between(floor, cap int) divisorTable {
	lo, hi := 0, len(ds)
	for lo < hi && ds[lo] < floor {
		lo++
	}
	for hi > lo && ds[hi-1] > cap {
		hi--
	}
	return ds[lo:hi]
}

// snapPPToLayers rounds pp down to the nearest divisor that is at least
// floor; when nothing lies between floor and pp it takes the smallest
// divisor >= floor instead. Returns 0 when no divisor is >= floor.
func (ds divisorTable) snapPPToLayers(pp, floor int) int {
	if in := ds.between(floor, pp); len(in) > 0 {
		return in[len(in)-1]
	}
	if in := ds.between(floor, math.MaxInt); len(in) > 0 {
		return in[0]
	}
	return 0
}
