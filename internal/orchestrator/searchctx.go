package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"disttrain/internal/model"
	"disttrain/internal/parallel"
)

// searchCtx is everything about one spec that all of its candidates
// share, derived once: a §4.3 search bounds ~90 backbone shapes and
// scores the few hundred strategy combinations of those it expands
// against the same spec, and none of them should copy the 512-byte
// Spec, re-validate it, re-query the profiler or re-derive
// model FLOPs. The exported CheckMemory builds one for a single plan,
// so searched and hand-built plans are checked by the same arithmetic.
//
// It assumes spec.Validate() passed.
type searchCtx struct {
	spec     *Spec
	n        int     // GPU budget
	m        float64 // microbatch size M
	vpp      int
	tpSizes  []int
	cTrainTP [3][]float64 // C_mod(width) for every width in tpSizes
	divisors divisorTable // of the backbone's layer count
	mem      [3]moduleMemory
	budget   float64 // per-GPU capacity of the cluster's SKU, less the 8% runtime reserve
	mfuFLOPs float64 // model FLOPs per iteration, the MFU estimate's numerator
	// shapes is the strategy set's block table, filled by strategySet,
	// nil for a context that only evaluates plans.
	shapes []shape
	// lo holds each modality module's floor per width tpSizes[t],
	// ordered like model.Modalities: the fewest GPUs a replicated group
	// of that width can take, filled by setFloors. Fixed-size, so a
	// search's tables cost no allocation.
	lo [2][maxWidths]int
}

// maxWidths bounds len(tpSizes): a power of two that fits an int is at
// most 2⁶².
const maxWidths = 63

// shape is one backbone shape (TP_lm, DP_lm) of the strategy set: the
// block of len(tpSizes)² consecutive candidates, one per (w_me, w_mg),
// that share its memory floor.
type shape struct {
	tp, dp int
	k      int     // microbatches per iteration, BS/(DP_lm·M)
	floor  int     // llmMemoryFloor's PP, 0 when no divisor fits
	err    error   // llmMemoryFloor's error
	cLM    float64 // C_lm(TP)
}

// moduleMemory is the plan-independent half of one module's §4.2
// memory constraint.
type moduleMemory struct {
	act    float64 // activation bytes of one microbatch across the whole module
	params float64
	frozen bool
}

func newSearchCtx(s *Spec) searchCtx {
	kern := s.Profiler.Kernel()
	work := kern.Fold(s.Profiler.MeanShape())
	sc := searchCtx{
		spec:     s,
		n:        s.maxGPUs(),
		m:        float64(s.Microbatch),
		vpp:      s.vpp(),
		tpSizes:  parallel.TPSizes(s.Cluster.GPUsPerNode),
		divisors: divisorsOf(s.Model.Backbone.Layers),
		budget:   s.Profiler.Options().Cluster.GPU.MemoryBytes * 0.92,
	}
	for _, mod := range model.Modules {
		sc.cTrainTP[mod] = make([]float64, len(sc.tpSizes))
		for i, tp := range sc.tpSizes {
			sc.cTrainTP[mod][i] = s.Profiler.CTrain(mod, tp)
		}
		fwd, bwd := kern.TrainFLOPs(mod, work)
		sc.mfuFLOPs += (fwd + bwd) * float64(s.GlobalBatch)
		sc.mem[mod] = moduleMemory{
			act:    kern.ActivationBytes(mod, work) * float64(s.Microbatch),
			params: kern.Params(mod),
			frozen: s.Profiler.Frozen(mod),
		}
	}
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

// strategySet fills the block table in the deterministic order of the
// original nested-loop enumeration — TP_lm, then DP_lm over the factors
// of BS/M that fit the fleet alongside one PP stage, then w_me, then
// w_mg — and returns the number of candidates. The order is
// load-bearing: §7.1's tie-breaking scans candidates in it. The
// DP_lm values of a wider TP_lm are a prefix of the narrowest's, so
// only the narrowest scans BS/M's factors.
func (sc *searchCtx) strategySet() int {
	total := sc.spec.GlobalBatch / sc.spec.Microbatch
	maxDP := min(sc.n/sc.tpSizes[0], total)
	dps := 0
	for dp := 1; dp <= maxDP; dp++ {
		if total%dp == 0 {
			dps++
		}
	}
	sc.shapes = make([]shape, 0, dps*len(sc.tpSizes))
	for dp := 1; dp <= maxDP; dp++ {
		if total%dp == 0 {
			sc.shapes = append(sc.shapes, sc.shapeAt(0, dp))
		}
	}
	for t := 1; t < len(sc.tpSizes); t++ {
		for _, narrow := range sc.shapes[:dps] {
			if narrow.dp > sc.n/sc.tpSizes[t] {
				break
			}
			sc.shapes = append(sc.shapes, sc.shapeAt(t, narrow.dp))
		}
	}
	// A replicated module's footprint depends on its GPU count alone,
	// not its width, and only falls as it grows: ZeRO-1 shards the
	// optimizer state over every copy. So one scan per module finds the
	// floor every candidate's x or z starts from.
	var from [2]int
	for j, mod := range model.Modalities {
		g := 1
		for g <= sc.n && !sc.fits(mod, &ModulePlan{Config: parallel.Plain(1, 1, g)}) {
			g++
		}
		from[j] = g
	}
	sc.setFloors(from)
	return len(sc.shapes) * len(sc.tpSizes) * len(sc.tpSizes)
}

// setFloors fills the floor tables from the fewest GPUs at which each
// modality module fits replicated (n+1 when nowhere): at each width,
// the smallest multiple of it at or above that count, so more than the
// budget when the module fits nowhere.
func (sc *searchCtx) setFloors(from [2]int) {
	for t, w := range sc.tpSizes {
		for j, f := range from {
			sc.lo[j][t] = max(f+w-1, w) / w * w
		}
	}
}

// shapeAt is the block table's entry for TP_lm = tpSizes[t] at dp. The
// table's last shape, when it has the same TP_lm, is the next smaller
// DP_lm's, and its floor starts llmMemoryFloor's walk.
func (sc *searchCtx) shapeAt(t, dp int) shape {
	tp, prev := sc.tpSizes[t], 0
	if n := len(sc.shapes); n > 0 && sc.shapes[n-1].tp == tp {
		prev = sc.shapes[n-1].floor
	}
	floor, err := sc.llmMemoryFloor(tp, dp, prev)
	return shape{
		tp: tp, dp: dp, k: sc.spec.GlobalBatch / (dp * sc.spec.Microbatch),
		floor: floor, err: err, cLM: sc.cTrainTP[model.Backbone][t],
	}
}

// member resolves the strategy set's i-th candidate through the block
// table: its shape and its modality modules' width indices into
// tpSizes, ordered like model.Modalities.
func (sc *searchCtx) member(i int) (*shape, [2]int) {
	nt := len(sc.tpSizes)
	return &sc.shapes[i/(nt*nt)], [2]int{i / nt % nt, i % nt}
}

// candidate is the strategy set's i-th candidate.
func (sc *searchCtx) candidate(i int) Candidate {
	sh, t := sc.member(i)
	return Candidate{TPLM: sh.tp, DPLM: sh.dp, WME: sc.tpSizes[t[0]], WMG: sc.tpSizes[t[1]]}
}

// indexOf is candidate's inverse: c's index in the strategy set, or -1
// when c lies outside it.
func (sc *searchCtx) indexOf(c Candidate) int {
	me, mg := slices.Index(sc.tpSizes, c.WME), slices.Index(sc.tpSizes, c.WMG)
	if me < 0 || mg < 0 {
		return -1
	}
	nt := len(sc.tpSizes)
	for b, sh := range sc.shapes {
		if sh.tp == c.TPLM && sh.dp == c.DPLM {
			return (b*nt+me)*nt + mg
		}
	}
	return -1
}

// floorMargin is how far over the budget a footprint must lie for
// llmMemoryFloor's walk to conclude that no smaller PP fits either.
const floorMargin = 1e-12

// llmMemoryFloor returns the minimum PP for the backbone at (tp, dp):
// the smallest divisor of the layer count whose per-GPU footprint fits.
// prev, when it is the floor at the same TP and a smaller DP (a larger
// DP only shards the optimizer state wider) and fits here, starts a
// walk down the divisors; otherwise, or when the walk cannot decide,
// the divisors are scanned from the smallest. The walk finds exactly
// the scan's floor: the parameter and optimizer terms are correctly
// rounded quotients of PP-independent numerators by TP·PP·DP, and the
// activation term is act/TP but for two roundings, so a smaller PP's
// footprint is at least (1−6u) times a larger one's (u = 2⁻⁵³). A
// divisor over the budget by floorMargin thus proves that none below
// it fits; one over by less sends the walk to the scan.
func (sc *searchCtx) llmMemoryFloor(tp, dp, prev int) (int, error) {
	budget := sc.budget
	footprint := func(pp int) float64 {
		mp := ModulePlan{Config: parallel.Plain(tp, pp, dp)}
		return sc.footprint(model.Backbone, &mp)
	}
	if j := slices.Index(sc.divisors, prev); j >= 0 && !(footprint(prev) > budget) {
		for ; j > 0; j-- {
			fp := footprint(sc.divisors[j-1])
			if fp > budget*(1+floorMargin) {
				return sc.divisors[j], nil
			}
			if fp > budget {
				break
			}
		}
		if j == 0 {
			return sc.divisors[0], nil
		}
	}
	for _, pp := range sc.divisors {
		if !(footprint(pp) > budget) {
			return pp, nil
		}
	}
	return 0, errNoFit{sc.spec.Model.Backbone.Name, tp, dp}
}

// errNoFit says the backbone fits at no PP. A §4.3 search records it
// for dozens of shapes of a large model and reads it only for an
// observer, so the message is worded only when read.
type errNoFit struct {
	backbone string
	tp, dp   int
}

func (e errNoFit) Error() string {
	return fmt.Sprintf("orchestrator: %s cannot fit at TP=%d DP=%d", e.backbone, e.tp, e.dp)
}

// footprint is module mod's §4.2 per-GPU memory on row mp:
// parameters+gradients of its model copies, ZeRO-1 optimizer shards
// and 1F1B peak activations.
func (sc *searchCtx) footprint(mod model.Module, mp *ModulePlan) float64 {
	mem := &sc.mem[mod]
	return model.MemoryForParams(mem.params, mp.GPUs(), mp.Copies(mod), mp.Config.PP, mem.act, mem.frozen).Total()
}

// fits enforces the §4.2 memory constraint for one module: its
// footprint must not exceed the per-GPU budget; checkMemory words the
// rejection. Written as "not over" so that an empty hand-built
// module's NaN footprint passes, as it always has (llmMemoryFloor
// compares the same way).
func (sc *searchCtx) fits(mod model.Module, mp *ModulePlan) bool {
	return !(sc.footprint(mod, mp) > sc.budget)
}

func (sc *searchCtx) checkMemory(p *Plan) error {
	for _, mod := range model.Modules {
		if mp := &p.Modules[mod]; !sc.fits(mod, mp) {
			return fmt.Errorf("orchestrator: %v needs %.1f GiB/GPU, capacity %.1f GiB",
				mod, sc.footprint(mod, mp)/(1<<30), sc.budget/(1<<30))
		}
	}
	return nil
}

// stageTime returns T_mod: the per-PP-stage time of module mod on row
// mp for one microbatch, using the paper's §4.2 formulas with the
// fwd+bwd C functions.
func (sc *searchCtx) stageTime(mod model.Module, mp *ModulePlan, dpLM int) float64 {
	width := mp.Config.ModelParallelWidth()
	c := sc.cTrain(mod, width)
	if !mod.Replicated() {
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
	total := p.TotalGPUs()
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
	for _, mod := range model.Modules {
		mp := &p.Modules[mod]
		t := sc.stageTime(mod, mp, dpLM)
		w := t * float64(mp.Config.PP)
		if !mod.Replicated() {
			w /= float64(sc.vpp)
		}
		warmup += w
		if t > steady {
			steady = t
		}
	}
	// Eq. 2: steady phase = bottleneck stage time * (microbatches - 1).
	// The conversion keeps the product from fusing into the sum below,
	// as in grid.at, which must reach the same time.
	steady = float64(steady * float64(p.Microbatches-1))

	p.IterTime = warmup + steady
	// MFU: model FLOPs executed per iteration over fleet capacity for the
	// estimated iteration time.
	p.EstMFU = 0
	if p.IterTime > 0 {
		p.EstMFU = sc.mfuFLOPs / (float64(total) * s.Cluster.GPU.PeakFLOPS * p.IterTime)
	}
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
