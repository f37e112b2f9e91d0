package fleet

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestLeaseTableBasics covers the explicit transition rules.
func TestLeaseTableBasics(t *testing.T) {
	tb := newLeaseTable(4)
	if err := tb.Acquire(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Acquire(1, []int{1, 2}); err == nil {
		t.Fatal("double lease of node 1 accepted")
	}
	if err := tb.Acquire(1, []int{2, 2}); err == nil {
		t.Fatal("duplicate node in one request accepted")
	}
	if err := tb.Acquire(1, []int{2, 9}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if owner, err := tb.Fail(1); err != nil || owner != 0 {
		t.Fatalf("Fail(1) = %d, %v", owner, err)
	}
	if _, err := tb.Fail(1); err == nil {
		t.Fatal("double failure accepted")
	}
	if err := tb.Join(0); err == nil {
		t.Fatal("join of a leased node accepted (would double-lease)")
	}
	if err := tb.Join(3); err == nil {
		t.Fatal("join of a free node accepted")
	}
	if err := tb.Join(1); err != nil {
		t.Fatal(err)
	}
	// The rejoined node is free again — and acquirable exactly once.
	if err := tb.Acquire(1, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Acquire(2, []int{1}); err == nil {
		t.Fatal("rejoined node leased twice")
	}
	if got := tb.Release(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Release(0) = %v (node 1 failed while leased, so only node 0 remains)", got)
	}
}

// TestLeaseTableAccountingProperty is the satellite property test: for
// arbitrary operation sequences — acquire, release, fail, join — the
// fleet invariant holds at every step: free + failed + leased
// partition the fleet (so the sum of leased GPUs never exceeds
// TotalGPUs), no node has two owners, and a failed node that rejoins
// is leasable exactly once. The table must either apply an operation
// consistently or reject it; the oracle below shadows it with a naive
// owner map.
func TestLeaseTableAccountingProperty(t *testing.T) {
	const nodes, tenants = 9, 4
	prop := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := newLeaseTable(nodes)
		shadow := make(map[int]int) // node -> owner; absent = free; -2 = failed
		for _, op := range ops {
			node := int(op>>2) % nodes
			job := rng.Intn(tenants)
			switch op % 4 {
			case 0: // acquire a random subset starting at node
				span := 1 + rng.Intn(3)
				var req []int
				for n := node; n < nodes && len(req) < span; n++ {
					req = append(req, n)
				}
				err := tb.Acquire(job, req)
				ok := true
				for _, n := range req {
					if _, taken := shadow[n]; taken {
						ok = false
					}
				}
				if ok != (err == nil) {
					t.Logf("acquire %v by %d: err=%v want ok=%v", req, job, err, ok)
					return false
				}
				if err == nil {
					for _, n := range req {
						shadow[n] = job
					}
				}
			case 1: // release everything the tenant holds
				freed := tb.Release(job)
				for _, n := range freed {
					if shadow[n] != job {
						return false
					}
					delete(shadow, n)
				}
			case 2: // fail
				owner, err := tb.Fail(node)
				if prev, failed := shadow[node]; failed && prev == -2 {
					if err == nil {
						return false // double failure accepted
					}
				} else {
					if err != nil {
						return false
					}
					wantOwner := nodeFree
					if o, leased := shadow[node]; leased {
						wantOwner = o
					}
					if owner != wantOwner {
						return false
					}
					shadow[node] = -2
				}
			case 3: // join
				err := tb.Join(node)
				if prev, present := shadow[node]; present && prev == -2 {
					if err != nil {
						return false
					}
					delete(shadow, node)
				} else if err == nil {
					return false // join of a non-failed node accepted
				}
			}
			// Conservation: states partition the fleet.
			if tb.FreeCount()+len(tb.Failed())+tb.LeasedCount() != nodes {
				return false
			}
			if tb.LeasedCount() != len(shadowLeased(shadow)) {
				return false
			}
			// Disjointness: Leases gives every leased node exactly its
			// shadow owner, each tenant's nodes ascending.
			want := map[int][]int{}
			for n, o := range shadow {
				if o >= 0 {
					want[o] = append(want[o], n)
				}
			}
			for _, ns := range want {
				slices.Sort(ns)
			}
			got := tb.Leases()
			if !reflect.DeepEqual(got, want) {
				return false
			}
			// The lists share one backing array, so each must be capped
			// at its length: an observer's append onto one tenant's
			// nodes must not overwrite the next tenant's.
			for _, ns := range got {
				if cap(ns) != len(ns) {
					return false
				}
			}
			if free := tb.Free(); cap(free) != len(free) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func shadowLeased(shadow map[int]int) []int {
	var out []int
	for n, o := range shadow {
		if o >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestPolicyNames covers the CLI policy names, the "fair" alias and
// the unknown-name error.
func TestPolicyNames(t *testing.T) {
	for s, want := range map[string]Scheduler{
		"fifo": fifo, "fair-share": FairShare, "fair": FairShare, "priority": Priority,
	} {
		got, err := LookupScheduler(s)
		if err != nil || got.Name() != want.Name() {
			t.Errorf("LookupScheduler(%q) = %v, %v", s, got, err)
		}
	}
	if fifo.Name() != "fifo" || FairShare.Name() != "fair-share" || Priority.Name() != "priority" {
		t.Error("policy names changed")
	}
	// The unknown-name error lists the registered schedulers.
	_, err := LookupScheduler("nope")
	if want := `fleet: unknown policy "nope" (registered: [fair-share fifo priority])`; err == nil || err.Error() != want {
		t.Errorf("LookupScheduler(nope) error = %v, want %s", err, want)
	}
}
