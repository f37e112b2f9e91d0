package cluster

import (
	"testing"
	"testing/quick"
)

func TestProductionShape(t *testing.T) {
	c := Production(162) // 1296 GPUs, the paper's maximum
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.TotalGPUs(); got != 1296 {
		t.Fatalf("TotalGPUs = %d, want 1296", got)
	}
	if c.GPU.PeakFLOPS != 312e12 {
		t.Fatalf("PeakFLOPS = %g, want Ampere bf16 peak", c.GPU.PeakFLOPS)
	}
}

func TestValidateRejectsBadClusters(t *testing.T) {
	cases := []Cluster{
		{},
		{Nodes: 1},
		{Nodes: 1, GPUsPerNode: 8},
		{Nodes: -3, GPUsPerNode: 8, GPU: AmpereSXM, NVLinkBps: 1, InterNodeBps: 1},
		{Nodes: 1, GPUsPerNode: 8, GPU: AmpereSXM, NVLinkBps: 0, InterNodeBps: 1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid cluster %+v", i, c)
		}
	}
}

func TestNodeTopology(t *testing.T) {
	c := Production(4)
	if !c.SameNode(0, 7) {
		t.Error("ranks 0 and 7 should share node 0")
	}
	if c.SameNode(7, 8) {
		t.Error("ranks 7 and 8 must be on different nodes")
	}
	if got := c.NodeOf(23); got != 2 {
		t.Errorf("NodeOf(23) = %d, want 2", got)
	}
}

func TestGroupBandwidthRegimes(t *testing.T) {
	c := Production(4)
	intra := c.GroupBandwidth(8)
	cross := c.GroupBandwidth(16)
	if intra != c.NVLinkBps {
		t.Errorf("8-GPU group should ride NVLink, got %g", intra)
	}
	if cross >= intra {
		t.Errorf("cross-node group bandwidth %g should be below NVLink %g", cross, intra)
	}
	wantCross := c.InterNodeBps / 8
	if cross != wantCross {
		t.Errorf("cross-node per-GPU bandwidth = %g, want %g", cross, wantCross)
	}

	// A non-rail-optimised fabric halves cross-node bandwidth.
	c2 := c
	c2.RailOptimized = false
	if got := c2.GroupBandwidth(16); got != wantCross/2 {
		t.Errorf("non-rail cross bandwidth = %g, want %g", got, wantCross/2)
	}
}

func TestPartition(t *testing.T) {
	c := Production(2) // 16 GPUs
	slices, err := c.Partition(4, 8, 4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if len(slices) != 3 {
		t.Fatalf("got %d slices, want 3", len(slices))
	}
	if slices[1].First != 4 || slices[1].Count != 8 {
		t.Errorf("middle slice = %v, want [4,12)", slices[1])
	}
	for i := 0; i < len(slices); i++ {
		for j := i + 1; j < len(slices); j++ {
			if slices[i].First < slices[j].End() && slices[j].First < slices[i].End() {
				t.Errorf("slices %d and %d overlap", i, j)
			}
		}
	}
	if _, err := c.Partition(10, 10); err == nil {
		t.Error("Partition should reject oversubscription")
	}
	if _, err := c.Partition(4, -1); err == nil {
		t.Error("Partition should reject negative sizes")
	}
}

func TestSliceGeometry(t *testing.T) {
	s := Slice{First: 8, Count: 4}
	if s.End() != 12 {
		t.Errorf("End = %d, want 12", s.End())
	}
	for _, rank := range []int{8, 9, 11} {
		if !s.Contains(rank) {
			t.Errorf("slice should contain %d", rank)
		}
	}
	for _, rank := range []int{7, 12} {
		if s.Contains(rank) {
			t.Errorf("slice should not contain %d", rank)
		}
	}
	if got := s.String(); got != "[8,12)" {
		t.Errorf("String = %q", got)
	}
}

// Property: bandwidth never increases as the group grows, for any
// plausible group size. Larger groups can only add slower links.
func TestGroupBandwidthMonotone(t *testing.T) {
	c := Production(64)
	f := func(a, b uint8) bool {
		x, y := int(a)%512+1, int(b)%512+1
		if x > y {
			x, y = y, x
		}
		return c.GroupBandwidth(x) >= c.GroupBandwidth(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: partitions never overlap and cover consecutive ranks.
func TestPartitionConsecutive(t *testing.T) {
	c := Production(16)
	f := func(raw []uint8) bool {
		if len(raw) > 6 {
			raw = raw[:6]
		}
		sizes := make([]int, len(raw))
		total := 0
		for i, r := range raw {
			sizes[i] = int(r % 16)
			total += sizes[i]
		}
		if total > c.TotalGPUs() {
			return true // oversubscription is rejected separately
		}
		slices, err := c.Partition(sizes...)
		if err != nil {
			return false
		}
		next := 0
		for _, s := range slices {
			if s.First != next {
				return false
			}
			next = s.End()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
