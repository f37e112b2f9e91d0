package orchestrator

import (
	"math/bits"
	"testing"

	"disttrain/internal/model"
)

// monotoneSeeds are the (model, batch, M, N) pairs of the full-training
// sweep over 2–64 nodes at batches 64, 128 and 256 where the plan for
// N nodes once came out more than selectBand slower than the plan for
// M < N nodes: 24 cluster sizes N, each with the M it lost the most to.
var monotoneSeeds = []struct {
	m            model.MLLM
	batch, lo, n int
}{
	{model.MLLM15B(), 64, 25, 27}, {model.MLLM15B(), 64, 30, 31}, {model.MLLM15B(), 64, 30, 32},
	{model.MLLM15B(), 128, 25, 26}, {model.MLLM15B(), 128, 25, 27}, {model.MLLM15B(), 128, 25, 31},
	{model.MLLM15B(), 128, 51, 53}, {model.MLLM15B(), 128, 51, 54}, {model.MLLM15B(), 128, 51, 55},
	{model.MLLM15B(), 128, 60, 61}, {model.MLLM15B(), 128, 60, 63},
	{model.MLLM15B(), 256, 51, 52}, {model.MLLM15B(), 256, 51, 53}, {model.MLLM15B(), 256, 51, 54},
	{model.MLLM15B(), 256, 51, 55}, {model.MLLM15B(), 256, 59, 61}, {model.MLLM15B(), 256, 59, 62},
	{model.MLLM15B(), 256, 59, 63},
	{model.MLLM72B(), 64, 25, 26}, {model.MLLM72B(), 64, 29, 30},
	{model.MLLM72B(), 128, 50, 51}, {model.MLLM72B(), 128, 50, 52}, {model.MLLM72B(), 128, 50, 60},
	{model.MLLM72B(), 256, 49, 58},
}

// FuzzPlanMonotone: more nodes never plan slower. Whenever the plan
// for M nodes fits in N > M nodes, the plan for N is at most selectBand
// slower: both are the fewest-GPU plan inside the band around their
// cluster's fastest buildable time, and N can build everything M can,
// so its fastest time is no larger. Inputs map to a preset, a batch of
// 16·2^k (k < 5), full training or a §7.3 freeze setting, and
// 1 <= M < N <= 64 nodes.
func FuzzPlanMonotone(f *testing.F) {
	presets := model.Presets()
	for _, s := range monotoneSeeds {
		mi := 0
		for presets[mi].Name != s.m.Name {
			mi++
		}
		f.Add(uint8(mi), uint8(bits.TrailingZeros(uint(s.batch/16))), uint8(0), uint8(s.lo-1), uint8(s.n-s.lo-1))
	}
	f.Fuzz(func(t *testing.T, mi, bi, fi, lo, hi uint8) {
		m := presets[int(mi)%len(presets)]
		batch := 16 << (bi % 5)
		freezes := append([]model.FreezeSpec{model.FullTraining}, model.FrozenSettings()...)
		fr := freezes[int(fi)%len(freezes)]
		small := int(lo)%63 + 1
		big := small + 1 + int(hi)%(64-small)

		ps, err := PlanDistTrain(newSpec(t, m, small, batch, fr))
		if err != nil {
			return // nothing to carry over to the larger cluster
		}
		s := newSpec(t, m, big, batch, fr)
		if ps.TotalGPUs() > s.maxGPUs() {
			return
		}
		pb, err := PlanDistTrain(s)
		if err != nil {
			t.Fatalf("%s batch %d %s: %d nodes plan (%d GPUs), %d nodes fail: %v",
				m.Name, batch, fr.Name, small, ps.TotalGPUs(), big, err)
		}
		if pb.IterTime > ps.IterTime*selectBand {
			t.Errorf("%s batch %d %s: %d nodes plan %.4fs on %d GPUs, %d nodes %.4fs on %d GPUs (%+.2f%%)",
				m.Name, batch, fr.Name, small, ps.IterTime, ps.TotalGPUs(), big, pb.IterTime, pb.TotalGPUs(),
				100*(pb.IterTime/ps.IterTime-1))
		}
	})
}
