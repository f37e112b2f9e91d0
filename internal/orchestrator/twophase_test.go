package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/profiler"
)

// seedFromPlan extracts a plan's strategy combination — the same
// projection the plan cache uses to warm-start a neighbouring size.
func seedFromPlan(p *Plan) Candidate {
	return Candidate{
		TPLM: p.Modules[model.Backbone].Config.TP,
		DPLM: p.Modules[model.Backbone].Config.DP,
		WME:  p.Modules[model.Encoder].Config.TP,
		WMG:  p.Modules[model.Generator].Config.TP,
	}
}

// countPruned is an observer that counts the candidates reported
// pruned into n, the count disttrain-plan prints.
func countPruned(n *int) func(Candidate, *Plan, error) {
	return func(_ Candidate, _ *Plan, err error) {
		if errors.Is(err, ErrCandidatePruned) {
			*n++
		}
	}
}

// twoPhaseShapes are the bound-policy gate's specs. minPruned is the
// unseeded prune count of the two-phase search whose first phase
// solved every 8th candidate in full: the search must never prune less.
var twoPhaseShapes = []struct {
	name      string
	m         model.MLLM
	nodes     int
	batch     int
	freeze    model.FreezeSpec
	minPruned int
}{
	{"lease-2node", model.MLLM9B(), 2, 32, model.FullTraining, 95},
	{"lease-2node-batch96", model.MLLM9B(), 2, 96, model.FullTraining, 139},
	{"9b-12node", model.MLLM9B(), 12, 96, model.FullTraining, 470},
	{"9b-14node", model.MLLM9B(), 14, 64, model.FullTraining, 274},
	{"15b-encoder-only", model.MLLM15B(), 16, 128, freezeSetting("encoder-only"), 266},
}

// TestTwoPhaseSearchEquivalence is the engine's bound-policy gate.
// Whatever seed a request carries — none, the incumbent of the
// neighbouring cluster size, the optimum itself, or a candidate
// outside the strategy set — the search returns a plan byte-identical
// to the sequential reference and actually prunes work, and the prune
// count depends on the spec and seed alone, not on the inert
// Parallelism. A seed can only lower the stop line early, so the
// optimal seed never prunes fewer candidates than no seed. The bound
// the search stops at lies within selectBand of the chosen plan, and
// the unseeded search prunes at least minPruned.
func TestTwoPhaseSearchEquivalence(t *testing.T) {
	for _, tc := range twoPhaseShapes {
		t.Run(tc.name, func(t *testing.T) {
			s := newSpec(t, tc.m, tc.nodes, tc.batch, tc.freeze)
			want, err := planDistTrainSequential(s)
			if err != nil {
				t.Fatal(err)
			}
			neighbor := s
			neighbor.Cluster.Nodes = tc.nodes + 1
			inc, err := planDistTrainSequential(neighbor)
			if err != nil {
				t.Fatal(err)
			}
			// The bound must be a time the reference reaches, or it could
			// prune a member of the reference's tie-break band.
			fastest := math.Inf(1)
			sc := newSearchCtx(&s)
			for i := range sc.strategySet() {
				if sp, err := sc.solveCandidate(i); err == nil {
					fastest = min(fastest, sp.plan.IterTime)
				}
			}

			incumbent, optimal := seedFromPlan(inc), seedFromPlan(want)
			prunedBy := map[string]int{}
			for _, sc := range []struct {
				name string
				seed *Candidate
			}{
				{"no-seed", nil},
				{"neighbour-incumbent", &incumbent},
				{"optimal", &optimal},
				{"outside-strategy-set", &Candidate{TPLM: 3, DPLM: 1, WME: 3, WMG: 3}},
			} {
				pruned := -1
				for _, par := range []int{1, 4} {
					n := 0
					plan, err := search(s, sc.seed, SearchOptions{Parallelism: par, OnCandidate: countPruned(&n)})
					if err != nil {
						t.Fatalf("%s par=%d: %v", sc.name, par, err)
					}
					if !reflect.DeepEqual(plan, want) {
						t.Errorf("%s par=%d: diverged from sequential reference:\ngot  %+v\nwant %+v", sc.name, par, plan, want)
					}
					if n == 0 {
						t.Errorf("%s par=%d: pruned nothing", sc.name, par)
					}
					if pruned >= 0 && n != pruned {
						t.Errorf("%s: prune count depends on parallelism: %d (par=%d) vs %d", sc.name, n, par, pruned)
					}
					pruned = n
				}
				prunedBy[sc.name] = pruned
				var r bestFirst
				if _, err := r.run(&s, sc.seed, nil); err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				if r.best < fastest || r.best > want.IterTime*selectBand {
					t.Errorf("%s: search bound %g is not in [%g, the band of the chosen plan's %g]",
						sc.name, r.best, fastest, want.IterTime)
				}
			}
			if prunedBy["optimal"] < prunedBy["no-seed"] {
				t.Errorf("optimal seed loosened the bound: pruned %d < unseeded %d", prunedBy["optimal"], prunedBy["no-seed"])
			}
			if prunedBy["no-seed"] < tc.minPruned {
				t.Errorf("unseeded search pruned %d candidates, fewer than the %d full solves of the sample reached", prunedBy["no-seed"], tc.minPruned)
			}
			if prunedBy["outside-strategy-set"] != prunedBy["no-seed"] {
				t.Errorf("ignored seed changed the prune count: %d vs unseeded %d", prunedBy["outside-strategy-set"], prunedBy["no-seed"])
			}
			t.Logf("pruned of %d candidates: %v", len(enumerateCandidates(s, s.maxGPUs())), prunedBy)
		})
	}
}

// bandOracle is the brute-force view of one spec's search: which
// candidates have a grid, which of those fail their exact solve
// (none should), and which lie in the band — a lower bound at most
// fastest·selectBand·(1+pruneSlack), for the fastest time any
// candidate's exact solve reaches: the set a best-first search must
// solve and nothing more —
// and how many shapes have a blockBound at most that stop line: the
// shapes it must expand and nothing more.
type bandOracle struct {
	cands                  []Candidate
	hasGrid, fails, inBand []bool
	band, grids, blocks    int
}

func newBandOracle(s Spec) bandOracle {
	sc := newSearchCtx(&s)
	sc.strategySet()
	o := bandOracle{cands: enumerateCandidates(s, sc.n)}
	n := len(o.cands)
	o.hasGrid, o.fails, o.inBand = make([]bool, n), make([]bool, n), make([]bool, n)
	lbs := make([]float64, n)
	fastest := math.Inf(1)
	for i := range o.cands {
		g, err := sc.gridFor(i)
		if err != nil {
			continue
		}
		o.hasGrid[i], lbs[i] = true, g.bound()
		o.grids++
		if sp, err := sc.solveCandidate(i); err == nil {
			fastest = min(fastest, sp.plan.IterTime)
		} else {
			o.fails[i] = true
		}
	}
	for i := range o.cands {
		if o.hasGrid[i] && lbs[i] <= fastest*selectBand*(1+pruneSlack) {
			o.inBand[i] = true
			o.band++
		}
	}
	for b := range sc.shapes {
		if !(sc.blockBound(b) > fastest*selectBand*(1+pruneSlack)) {
			o.blocks++
		}
	}
	return o
}

// check runs the search with seed and asserts that it reports every
// candidate exactly once, solves (reports without ErrCandidatePruned)
// exactly the band plus a seed outside it, prunes the rest of the
// candidates with a grid, and returns the reference plan: the
// brute-force plan on up to 64 GPUs, the sequential reference (held to
// brute force by TestDistTrainMatchesBruteForce) beyond. It expands
// exactly the oracle's shapes, and without an observer it returns the
// same plan and expands as many shapes.
func (o bandOracle) check(t *testing.T, s Spec, seed *Candidate) {
	t.Helper()
	ref := planDistTrainSequential
	if s.maxGPUs() <= 64 {
		ref = bruteForcePlan
	}
	want, wantErr := ref(s)
	reports := map[Candidate]int{}
	solved := map[Candidate]bool{}
	pruned := 0
	var r bestFirst
	plan, err := r.run(&s, seed, func(c Candidate, _ *Plan, err error) {
		reports[c]++
		solved[c] = !errors.Is(err, ErrCandidatePruned)
		if !solved[c] {
			pruned++
		}
	})
	if !errors.Is(err, wantErr) || !reflect.DeepEqual(plan, want) {
		t.Fatalf("diverged from sequential reference:\ngot  %+v, %v\nwant %+v, %v", plan, err, want, wantErr)
	}
	solves := 0
	for i, c := range o.cands {
		if reports[c] != 1 {
			t.Fatalf("%v reported %d times, want once", c, reports[c])
		}
		if !o.hasGrid[i] {
			continue
		}
		wantSolved := o.inBand[i] || (seed != nil && c == *seed)
		if solved[c] != wantSolved {
			t.Fatalf("%v: solved %v, want %v (in band %v)", c, solved[c], wantSolved, o.inBand[i])
		}
		if solved[c] {
			solves++
		}
	}
	if pruned != o.grids-solves {
		t.Fatalf("pruned %d, want the %d candidates with a grid less the %d solved", pruned, o.grids, solves)
	}
	if r.expanded != o.blocks {
		t.Fatalf("expanded %d shapes, want the %d whose block bound lies under the stop line", r.expanded, o.blocks)
	}
	var unobserved bestFirst
	if p, err := unobserved.run(&s, seed, nil); !reflect.DeepEqual(p, plan) || !errors.Is(err, wantErr) {
		t.Fatalf("without an observer: %+v, %v; with one %+v, %v", p, err, plan, wantErr)
	}
	if unobserved.expanded != r.expanded {
		t.Fatalf("expanded %d shapes without an observer, %d with one", unobserved.expanded, r.expanded)
	}
}

// TestSearchSolvesOnlyTheBand is the best-first search's oracle: on
// the plan-sweep specs one node either side of Table 3's sizes, the
// two-phase gate's shapes and churn-shaped 9B leases, the search
// returns the sequential reference's plan and solves exactly the
// candidates whose lower bound lies in the band around the fastest
// plan, found by brute force.
func TestSearchSolvesOnlyTheBand(t *testing.T) {
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
	for nodes := 2; nodes <= 6; nodes++ {
		s := newSpec(t, model.MLLM9B(), nodes, 16, model.FullTraining)
		for _, batch := range []int{16, 32, 48, 64} {
			s.GlobalBatch = batch
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		t.Run(fmt.Sprintf("%s-%dnode-batch%d", s.Model.Name, s.Cluster.Nodes, s.GlobalBatch), func(t *testing.T) {
			o := newBandOracle(s)
			if o.band == 0 {
				t.Fatal("no candidate in the band")
			}
			o.check(t, s, nil)
		})
	}
}

// TestSearchSeedSolvedOnce: a seed is solved at most once and reported
// once — the heap skips the candidate it already tried — whether it has
// no grid at all or lies inside or outside the band; the search
// otherwise solves exactly the band. No solve fails: a candidate passes
// noGrid only when its lower bounds — the backbone's memory-floor
// PP and the fewest GPUs at which each modality module fits — fit the
// budget, and the enumeration starts from exactly that point. Small
// GPUs are where that shows: on 16 GiB the 9B encoder fits only from 3
// GPUs, above a width-1 or width-2 group's one granule; on 12 GiB it
// fits on none of the 32, so no candidate has a grid and the
// search fails whatever the seed.
func TestSearchSeedSolvedOnce(t *testing.T) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gib   float64
		kinds int
	}{{16, 3}, {12, 1}} {
		cl := cluster.Production(4)
		cl.GPU.MemoryBytes = tc.gib * (1 << 30)
		p, err := profiler.New(profiler.DefaultOptions(cl, model.MLLM9B()))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Calibrate(corpus, 300); err != nil {
			t.Fatal(err)
		}
		s := Spec{Cluster: cl, Model: model.MLLM9B(), GlobalBatch: 32, Microbatch: 1, Profiler: p, VPP: 1}
		o := newBandOracle(s)
		seeds := map[string]int{}
		for i, c := range o.cands {
			switch {
			case o.fails[i]:
				t.Fatalf("%g GiB: %v has a grid but its solve fails", tc.gib, c)
			case !o.hasGrid[i]:
				seeds["no-subproblem"] = i
			case o.inBand[i]:
				seeds["in-band"] = i
			default:
				seeds["outside-band"] = i
			}
		}
		if len(seeds) != tc.kinds {
			t.Fatalf("%g GiB: want %d seed kinds, got %v", tc.gib, tc.kinds, seeds)
		}
		for name, i := range seeds {
			t.Run(fmt.Sprintf("%gGiB-%s", tc.gib, name), func(t *testing.T) { o.check(t, s, &o.cands[i]) })
		}
	}
}
