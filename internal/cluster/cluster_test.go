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
		{Nodes: -3, GPUsPerNode: 8, GPU: ampereSXM, NVLinkBps: 1, InterNodeBps: 1},
		{Nodes: 1, GPUsPerNode: 8, GPU: ampereSXM, NVLinkBps: 0, InterNodeBps: 1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid cluster %+v", i, c)
		}
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
