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
// count depends on the request alone: not on the worker count, and not
// on whether the spec is planned alone or batched with another. A seed
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
			// The batch companion: a different geometry with its own seed,
			// which must not leak into s's bound.
			other := s
			other.GlobalBatch = 2 * tc.batch
			otherWant, err := planDistTrainSequential(other)
			if err != nil {
				t.Fatal(err)
			}
			otherSeed := seedFromPlan(otherWant)
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
					for _, batched := range []bool{false, true} {
						reqs := []PlanRequest{{Spec: s, Seed: sc.seed}}
						if batched {
							reqs = append(reqs, PlanRequest{Spec: other, Seed: &otherSeed})
						}
						rs := PlanMany(context.Background(), reqs, SearchOptions{Parallelism: par})
						for i, w := range []*Plan{want, otherWant}[:len(rs)] {
							if rs[i].Err != nil {
								t.Fatalf("%s par=%d batched=%v spec %d: %v", sc.name, par, batched, i, rs[i].Err)
							}
							if !reflect.DeepEqual(rs[i].Plan, w) {
								t.Errorf("%s par=%d batched=%v spec %d: diverged from sequential reference:\ngot  %+v\nwant %+v",
									sc.name, par, batched, i, rs[i].Plan, w)
							}
						}
						if rs[0].Pruned == 0 {
							t.Errorf("%s par=%d batched=%v: pruned nothing", sc.name, par, batched)
						}
						if b := rs[0].bound; b < fastest || b > want.IterTime*selectBand {
							t.Errorf("%s par=%d batched=%v: phase-1 bound %g is not in [%g, the band of the chosen plan's %g]",
								sc.name, par, batched, b, fastest, want.IterTime)
						}
						if pruned >= 0 && rs[0].Pruned != pruned {
							t.Errorf("%s: prune count depends on parallelism or batching: %d (par=%d batched=%v) vs %d",
								sc.name, rs[0].Pruned, par, batched, pruned)
						}
						pruned = rs[0].Pruned
					}
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
