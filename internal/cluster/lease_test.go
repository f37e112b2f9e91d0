package cluster

import (
	"reflect"
	"testing"
)

func TestLeaseBasics(t *testing.T) {
	base := Production(8)
	l := NewLease(5, 1, 3)
	if !reflect.DeepEqual(l.Nodes, []int{1, 3, 5}) {
		t.Fatalf("NewLease did not sort: %v", l.Nodes)
	}
	if l.NodeCount() != 3 || l.GPUs(base) != 24 {
		t.Fatalf("count %d gpus %d", l.NodeCount(), l.GPUs(base))
	}
	if !l.Contains(3) || l.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if got := l.Without(3); !reflect.DeepEqual(got.Nodes, []int{1, 5}) {
		t.Fatalf("Without(3) = %v", got.Nodes)
	}
	if got := l.Without(7); !reflect.DeepEqual(got.Nodes, []int{1, 3, 5}) {
		t.Fatalf("Without(miss) = %v", got.Nodes)
	}
	if err := l.Validate(base); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Lease{
		"empty":        {},
		"out of range": NewLease(0, 8),
		"negative":     NewLease(-1),
		"duplicate":    {Nodes: []int{1, 1}},
		"unsorted":     {Nodes: []int{3, 1}},
	} {
		if err := bad.Validate(base); err == nil {
			t.Errorf("%s lease accepted", name)
		}
	}
}

// TestLeasePlacement covers the placement geometry a shaped fleet
// scheduler prices: run decomposition, the canonical shape string, and
// the rail-alignment penalty for fragmented leases.
func TestLeasePlacement(t *testing.T) {
	base := Production(8)

	packed := NewLease(2, 3, 4, 5)
	if got := packed.Runs(); !reflect.DeepEqual(got, []Run{{First: 2, Count: 4}}) {
		t.Errorf("packed runs = %v", got)
	}
	if len(packed.Runs()) != 1 || packed.Shape() != "4" {
		t.Errorf("packed fragments=%d shape=%q", len(packed.Runs()), packed.Shape())
	}
	if got := packed.Placed(base); got != packed.Subcluster(base) {
		t.Errorf("packed lease must price like its subcluster: %+v", got)
	}
	if !packed.Placed(base).RailOptimized {
		t.Error("packed lease lost rail alignment")
	}

	frag := NewLease(0, 1, 4, 5, 7)
	wantRuns := []Run{{First: 0, Count: 2}, {First: 4, Count: 2}, {First: 7, Count: 1}}
	if got := frag.Runs(); !reflect.DeepEqual(got, wantRuns) {
		t.Errorf("fragmented runs = %v, want %v", got, wantRuns)
	}
	if len(frag.Runs()) != 3 || frag.Shape() != "2+2+1" {
		t.Errorf("fragmented fragments=%d shape=%q", len(frag.Runs()), frag.Shape())
	}
	placed := frag.Placed(base)
	if placed.RailOptimized {
		t.Error("fragmented lease kept rail alignment")
	}
	if placed.Nodes != 5 || placed.GPUsPerNode != base.GPUsPerNode {
		t.Errorf("Placed changed geometry beyond rails: %+v", placed)
	}

	// Shape is placement-canonical: same run lengths anywhere on the
	// fleet, same shape — that is the plan-cache key property.
	if a, b := NewLease(0, 1, 4).Shape(), NewLease(5, 6, 2).Shape(); a != b || a != "2+1" {
		t.Errorf("shapes %q vs %q, want both 2+1", a, b)
	}

	var empty Lease
	if len(empty.Runs()) != 0 || empty.Shape() != "" {
		t.Errorf("empty lease fragments=%d shape=%q", len(empty.Runs()), empty.Shape())
	}
}

// TestLeaseSubcluster pins the equivalence the fleet runtime builds
// on: a lease's subcluster is the base cluster at the leased node
// count — identical hardware, identical per-GPU cost-model inputs.
func TestLeaseSubcluster(t *testing.T) {
	base := Production(12)
	sub := NewLease(2, 7, 9).Subcluster(base)
	if sub != Production(3) {
		t.Fatalf("subcluster %+v != Production(3)", sub)
	}
	if sub.CrossNodeBandwidthPerGPU() != base.CrossNodeBandwidthPerGPU() {
		t.Fatal("per-GPU bandwidth changed with node count")
	}
}
