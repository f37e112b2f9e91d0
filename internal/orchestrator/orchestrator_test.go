package orchestrator

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/parallel"
	"disttrain/internal/profiler"
)

// newSpec builds a calibrated spec for a model on a cluster of the
// given node count.
func newSpec(t *testing.T, m model.MLLM, nodes, globalBatch int, freeze model.FreezeSpec) Spec {
	t.Helper()
	cl := cluster.Production(nodes)
	opts := profiler.DefaultOptions(cl, m)
	opts.Freeze = freeze
	p, err := profiler.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 300); err != nil {
		t.Fatal(err)
	}
	return Spec{Cluster: cl, Model: m, GlobalBatch: globalBatch, Microbatch: 1, Profiler: p, VPP: 1}
}

// freezeSetting resolves a §7.3 freeze setting by its CLI name.
func freezeSetting(name string) model.FreezeSpec {
	f, err := model.FreezeByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

func TestSpecValidate(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 2, 16, model.FullTraining)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := s
	bad.Profiler = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil profiler accepted")
	}
	bad = s
	bad.GlobalBatch = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero batch accepted")
	}
	bad = s
	bad.Microbatch = 3 // does not divide 16
	if err := bad.Validate(); err == nil {
		t.Error("indivisible microbatch accepted")
	}
	// The profiler times MLLM-9B; a spec naming another model — or the
	// same one with a single dimension changed — would report an MFU for
	// a model it did not time. Every planner entry point rejects it.
	bad = s
	bad.Model = model.MLLM15B()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "MLLM-15B") {
		t.Errorf("spec/profiler model mismatch: %v", err)
	}
	if _, err := PlanDistTrain(bad); err == nil {
		t.Error("PlanDistTrain accepted a spec whose model the profiler did not time")
	}
	bad.Model = model.MLLM9B()
	bad.Model.Generator.StageChannels = []int{320, 640, 1280}
	if err := bad.Validate(); err == nil {
		t.Error("one-field model mismatch accepted")
	}
}

func checkPlanFeasible(t *testing.T, s Spec, p *Plan) {
	t.Helper()
	if p.TotalGPUs() > s.maxGPUs() {
		t.Errorf("%s plan uses %d GPUs, budget %d", p.Strategy, p.TotalGPUs(), s.maxGPUs())
	}
	dp := p.Modules[model.Backbone].Config.DP
	if (s.GlobalBatch/s.Microbatch)%dp != 0 {
		t.Errorf("%s: DP_lm=%d does not divide BS/M", p.Strategy, dp)
	}
	if err := CheckMemory(s, *p); err != nil {
		t.Errorf("%s: memory violated: %v", p.Strategy, err)
	}
	layers := s.Model.Backbone.Layers
	if pp := p.Modules[model.Backbone].Config.PP; layers%pp != 0 {
		t.Errorf("%s: PP=%d does not divide %d layers", p.Strategy, pp, layers)
	}
	if p.IterTime <= 0 || p.EstMFU <= 0 || p.EstMFU >= 1 {
		t.Errorf("%s: implausible estimates iter=%g mfu=%g", p.Strategy, p.IterTime, p.EstMFU)
	}
}

func TestAllPlannersProduceFeasiblePlans(t *testing.T) {
	for _, m := range model.Presets() {
		s := newSpec(t, m, 12, 96, model.FullTraining) // 96 GPUs: the §7.2 scale
		for _, plan := range []func(Spec) (*Plan, error){PlanDistTrain, PlanMegatron, PlanDistMM} {
			p, err := plan(s)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			checkPlanFeasible(t, s, p)
		}
	}
}

// DistTrain's adaptive orchestration must never lose to either baseline
// under the shared objective — it searches a superset of their
// configurations.
func TestDistTrainDominatesBaselines(t *testing.T) {
	cases := []struct {
		m     model.MLLM
		nodes int
		bs    int
	}{
		{model.MLLM9B(), 12, 128},
		{model.MLLM15B(), 12, 64},
		{model.MLLM72B(), 12, 40},
		{model.MLLM9B(), 162, 1920},
		{model.MLLM72B(), 162, 1920},
	}
	for _, c := range cases {
		s := newSpec(t, c.m, c.nodes, c.bs, model.FullTraining)
		dt, err := PlanDistTrain(s)
		if err != nil {
			t.Fatalf("%s: %v", c.m.Name, err)
		}
		for _, baseline := range []func(Spec) (*Plan, error){PlanMegatron, PlanDistMM} {
			b, err := baseline(s)
			if err != nil {
				continue // baseline may be infeasible on small clusters
			}
			// Iteration time (equivalently throughput, since the global
			// batch is fixed) is the optimisation objective: DistTrain
			// searches a superset of both baselines' strategies.
			if dt.IterTime > b.IterTime*(1+1e-9) {
				t.Errorf("%s on %d nodes: disttrain %.3fs slower than %s %.3fs",
					c.m.Name, c.nodes, dt.IterTime, b.Strategy, b.IterTime)
			}
			// MFU dominance holds against Megatron, which occupies a
			// comparable GPU count; DistMM* may idle a large fraction
			// of the fleet, which flatters its per-used-GPU MFU while
			// losing throughput, so no MFU assertion there.
			if b.Strategy == "megatron-lm" && dt.EstMFU < b.EstMFU*(1-1e-9) {
				t.Errorf("%s: disttrain MFU %.3f below %s %.3f",
					c.m.Name, dt.EstMFU, b.Strategy, b.EstMFU)
			}
		}
	}
}

// Figure 13 shape at full scale: DistTrain lands in the paper's MFU
// band and beats Megatron-LM by the paper's margins.
func TestFigure13Shape(t *testing.T) {
	wantRatio := map[string][2]float64{
		"MLLM-9B":  {1.6, 3.0},
		"MLLM-15B": {1.5, 3.0},
		"MLLM-72B": {1.05, 1.45},
	}
	for _, m := range model.Presets() {
		s := newSpec(t, m, 162, 1920, model.FullTraining)
		dt, err := PlanDistTrain(s)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := PlanMegatron(s)
		if err != nil {
			t.Fatal(err)
		}
		if dt.EstMFU < 0.45 || dt.EstMFU > 0.62 {
			t.Errorf("%s: DistTrain MFU %.1f%% outside the paper's 50-55%% band (±)", m.Name, 100*dt.EstMFU)
		}
		ratio := dt.EstMFU / mg.EstMFU
		band := wantRatio[m.Name]
		if ratio < band[0] || ratio > band[1] {
			t.Errorf("%s: DistTrain/Megatron MFU ratio %.2f outside [%.2f, %.2f]",
				m.Name, ratio, band[0], band[1])
		}
	}
}

// selectPlan is §7.1's rule over a list of plans, the brute-force
// oracle's: the fastest plan, then the fewest GPUs within selectBand of
// it, ties to the faster and then to the earlier in the list — "DistTrain
// intentionally allocates fewer resources in some cases because adding
// more GPUs yields no further improvements" (§7.1).
func selectPlan(plans []*Plan) *Plan {
	fastest := plans[0]
	for _, c := range plans[1:] {
		if c.IterTime < fastest.IterTime {
			fastest = c
		}
	}
	best := fastest
	for _, c := range plans {
		if c.IterTime <= fastest.IterTime*selectBand {
			if c.TotalGPUs() < best.TotalGPUs() ||
				(c.TotalGPUs() == best.TotalGPUs() && c.IterTime < best.IterTime) {
				best = c
			}
		}
	}
	return best
}

// bruteForcePlan is selectPlan over every buildable integer point of
// every candidate in the strategy set: each layer-divisor PP and every
// multiple of the group widths for x and z within the budget, scored
// and checked by evaluate, listed in the engine's tie order — candidate,
// then PP, x and z ascending. Points outside the band around the
// fastest cannot change selectPlan's pick, so a first pass finds the
// fastest time and a second lists the band.
func bruteForcePlan(s Spec) (*Plan, error) {
	sc := newSearchCtx(&s)
	// evaluate rejects a module over its memory with a formatted error;
	// skipping those modules first only saves the formatting.
	each := func(f func(p *Plan)) {
		for _, c := range enumerateCandidates(s, sc.n) {
			for _, pp := range divisorsOf(s.Model.Backbone.Layers) {
				bb := ModulePlan{Config: parallel.Config{TP: c.TPLM, PP: pp, DP: c.DPLM, VPP: sc.vpp, SP: true}}
				if !sc.fits(model.Backbone, &bb) {
					continue
				}
				for x := c.WME; x+bb.GPUs()+c.WMG <= sc.n; x += c.WME {
					enc := ModulePlan{Config: parallel.Config{TP: c.WME, PP: 1, DP: x / c.WME, VPP: 1}}
					if !sc.fits(model.Encoder, &enc) {
						continue
					}
					for z := c.WMG; x+bb.GPUs()+z <= sc.n; z += c.WMG {
						gen := ModulePlan{Config: parallel.Config{TP: c.WMG, PP: 1, DP: z / c.WMG, VPP: 1}}
						p := Plan{Strategy: "disttrain", Modules: [3]ModulePlan{enc, bb, gen}}
						if sc.fits(model.Generator, &gen) && sc.evaluate(&p) == nil {
							f(&p)
						}
					}
				}
			}
		}
	}
	fastest := math.Inf(1)
	each(func(p *Plan) { fastest = min(fastest, p.IterTime) })
	if math.IsInf(fastest, 1) {
		return nil, errNoFeasiblePlan
	}
	var band []*Plan
	each(func(p *Plan) {
		if p.IterTime <= fastest*selectBand {
			cp := *p
			band = append(band, &cp)
		}
	})
	return selectPlan(band), nil
}

// The search returns exactly the brute-force plan — the same strategy,
// allocation and estimates — on 2–8 nodes for every preset under full
// training and each §7.3 freeze setting, at batches 16–64
// (TestSearchSolvesOnlyTheBand holds the churn-shaped 9B leases to it
// too). About 3 s, 1 s under -short.
func TestDistTrainMatchesBruteForce(t *testing.T) {
	var specs []Spec
	freezes := append([]model.FreezeSpec{model.FullTraining}, model.FrozenSettings()...)
	for _, m := range model.Presets() {
		for _, fr := range freezes {
			for nodes := 2; nodes <= 8; nodes++ {
				if testing.Short() && nodes%3 != 0 {
					continue
				}
				specs = append(specs, newSpec(t, m, nodes, 16<<(nodes%3), fr))
			}
		}
	}
	planned := 0
	for _, s := range specs {
		want, wantErr := bruteForcePlan(s)
		got, err := PlanDistTrain(s)
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s %d nodes batch %d: search and brute force differ:\ngot  %v, %v\nwant %v, %v",
				s.Model.Name, s.Profiler.Options().Freeze.Name, s.Cluster.Nodes, s.GlobalBatch, got, err, want, wantErr)
		}
		if err == nil {
			planned++
		}
	}
	if planned < len(specs)/2 {
		t.Errorf("only %d of %d specs planned: the oracle checks too little", planned, len(specs))
	}
}

func TestMegatronUsesPaperConfig(t *testing.T) {
	want := map[string]int{"MLLM-9B": 1, "MLLM-15B": 2, "MLLM-72B": 10}
	for _, m := range model.Presets() {
		s := newSpec(t, m, 162, 1920, model.FullTraining)
		p, err := PlanMegatron(s)
		if err != nil {
			t.Fatal(err)
		}
		lm := p.Modules[model.Backbone].Config
		if lm.TP != 8 {
			t.Errorf("%s: megatron TP=%d, want 8", m.Name, lm.TP)
		}
		if lm.PP != want[m.Name] {
			t.Errorf("%s: megatron PP=%d, want %d (§7.1)", m.Name, lm.PP, want[m.Name])
		}
		// Monolithic: same TP and DP across all modules.
		for mod, mp := range p.Modules {
			if mp.Config.TP != lm.TP || mp.Config.DP != lm.DP {
				t.Errorf("%s: module %v deviates from monolithic strategy", m.Name, model.Module(mod))
			}
		}
	}
}

// Table 3: the orchestration algorithm completes in well under a second
// at every scale, and its runtime grows with cluster size.
func TestTable3PlannerOverhead(t *testing.T) {
	m := model.MLLM72B()
	type row struct {
		nodes, bs int
	}
	rows := []row{{14, 240}, {41, 480}, {81, 960}, {162, 1920}}
	var times []time.Duration
	for _, r := range rows {
		s := newSpec(t, m, r.nodes, r.bs, model.FullTraining)
		start := time.Now()
		if _, err := PlanDistTrain(s); err != nil {
			t.Fatalf("nodes=%d: %v", r.nodes, err)
		}
		el := time.Since(start)
		times = append(times, el)
		if el > time.Second {
			t.Errorf("planner took %v at %d nodes, paper reports <1s", el, r.nodes)
		}
	}
	if times[len(times)-1] <= times[0] {
		t.Logf("note: planner runtime did not grow with scale: %v", times)
	}
}

func TestFrozenSettingsShiftAllocations(t *testing.T) {
	m := model.MLLM9B()
	encOnly := newSpec(t, m, 12, 96, freezeSetting("encoder-only"))
	genOnly := newSpec(t, m, 12, 96, freezeSetting("generator-only"))
	pe, err := PlanDistTrain(encOnly)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := PlanDistTrain(genOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Training only the encoder triples its compute (fwd+2x bwd) versus
	// generator-only (fwd only... fwd+bwd=1x): the encoder share must
	// grow relative to the generator-only setting.
	encShareE := float64(pe.Modules[model.Encoder].GPUs()) / float64(pe.TotalGPUs())
	encShareG := float64(pg.Modules[model.Encoder].GPUs()) / float64(pg.TotalGPUs())
	if encShareE <= encShareG {
		t.Errorf("encoder share should grow under encoder-only training: %.3f vs %.3f",
			encShareE, encShareG)
	}
}

func TestVPPReducesWarmup(t *testing.T) {
	m := model.MLLM72B()
	s := newSpec(t, m, 12, 40, model.FullTraining)
	p1, err := PlanDistTrain(s)
	if err != nil {
		t.Fatal(err)
	}
	s.VPP = 4
	p4, err := PlanDistTrain(s)
	if err != nil {
		t.Fatal(err)
	}
	if p4.IterTime > p1.IterTime*(1+1e-9) {
		t.Errorf("VPP=4 (%.3fs) should not be slower than VPP=1 (%.3fs)", p4.IterTime, p1.IterTime)
	}
}

func TestEvaluateRejectsBadPlans(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 2, 16, model.FullTraining)
	// Oversubscribed.
	p := &Plan{Modules: [3]ModulePlan{
		model.Encoder:   {Config: parallel.Plain(1, 1, 100)},
		model.Backbone:  {Config: parallel.Plain(8, 1, 2)},
		model.Generator: {Config: parallel.Plain(1, 1, 1)},
	}}
	if err := evaluatePlan(s, p); err == nil {
		t.Error("oversubscribed plan accepted")
	}
	// DP does not divide BS.
	p2 := &Plan{Modules: [3]ModulePlan{
		model.Encoder:   {Config: parallel.Plain(1, 1, 1)},
		model.Backbone:  {Config: parallel.Plain(1, 1, 3)},
		model.Generator: {Config: parallel.Plain(1, 1, 1)},
	}}
	if err := evaluatePlan(s, p2); err == nil {
		t.Error("indivisible DP accepted")
	}
}

func TestMemoryFloorRejectsTinyCluster(t *testing.T) {
	// 70B cannot fit on a single 8-GPU node alongside its optimizer
	// states at DP=1, PP=1; the floor must force PP > 1.
	s := newSpec(t, model.MLLM72B(), 12, 40, model.FullTraining)
	sc := newSearchCtx(&s)
	pp, err := sc.llmMemoryFloor(8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pp < 2 {
		t.Errorf("70B memory floor PP=%d, want >=2", pp)
	}
}

func TestPlanString(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	p, err := PlanDistTrain(s)
	if err != nil {
		t.Fatal(err)
	}
	out := p.String()
	for _, needle := range []string{"disttrain", "encoder", "backbone", "generator", "MFU"} {
		if !containsStr(out, needle) {
			t.Errorf("plan string missing %q:\n%s", needle, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// evaluatePlan scores a candidate plan with the Eq. 1 + Eq. 2 objective
// and fills in the estimate fields — the brute-force oracle's scorer.
// It returns an error when the plan violates resource or memory
// constraints.
func evaluatePlan(s Spec, p *Plan) error {
	if err := s.Validate(); err != nil {
		return err
	}
	sc := newSearchCtx(&s)
	return sc.evaluate(p)
}
