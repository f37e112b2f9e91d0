package orchestrator

import (
	"context"
	"math"
	"reflect"
	"testing"

	"disttrain/internal/model"
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

// twoPhaseShapes are the bound-policy gate's specs. minPruned is the
// unseeded prune count of the search whose first phase solved every
// sampleStride-th candidate in full instead of probing it: probing must
// not loosen the bound.
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
	{"15b-encoder-only", model.MLLM15B(), 16, 128, model.EncoderOnly, 266},
}

// TestTwoPhaseSearchEquivalence is the engine's bound-policy gate.
// Whatever seed a request carries — none, the incumbent of the
// neighbouring cluster size, the optimum itself, or a candidate
// outside the strategy set — the search returns a plan byte-identical
// to the sequential reference and actually prunes work, and the prune
// count depends on the spec and seed alone, not on the worker count. A seed
// can only tighten the bound, so the optimal seed never prunes fewer
// candidates than no seed. Phase 1's probe must find the optimum's
// neighbourhood unaided: its bound lies within selectBand of the
// chosen plan, and the unseeded search prunes at least minPruned.
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
			for _, c := range sc.strategySet() {
				if p, err := sc.solveSubproblem(c, math.Inf(1), true); err == nil {
					fastest = min(fastest, p.IterTime)
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
					plan, n, bound, err := search(context.Background(), s, sc.seed, SearchOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("%s par=%d: %v", sc.name, par, err)
					}
					if !reflect.DeepEqual(plan, want) {
						t.Errorf("%s par=%d: diverged from sequential reference:\ngot  %+v\nwant %+v", sc.name, par, plan, want)
					}
					if n == 0 {
						t.Errorf("%s par=%d: pruned nothing", sc.name, par)
					}
					if bound < fastest || bound > want.IterTime*selectBand {
						t.Errorf("%s par=%d: phase-1 bound %g is not in [%g, the band of the chosen plan's %g]",
							sc.name, par, bound, fastest, want.IterTime)
					}
					if pruned >= 0 && n != pruned {
						t.Errorf("%s: prune count depends on parallelism: %d (par=%d) vs %d", sc.name, n, par, pruned)
					}
					pruned = n
				}
				prunedBy[sc.name] = pruned
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
