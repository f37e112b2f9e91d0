package fleet

import (
	"fmt"
	"maps"
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
	// Node 1 failed while leased, so releasing tenant 0's lease frees
	// only node 0.
	tb.Release(0, []int{0, 1})
	if got := tb.snapshot(); !slices.Equal(got.Free, []int{0, 2, 3}) || len(got.Leases) != 1 {
		t.Fatalf("after Release(0): %+v", got)
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
	all := make([]int, nodes)
	for n := range all {
		all[n] = n
	}
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
				tb.Release(job, all)
				for n, o := range shadow {
					if o == job {
						if tb.owner[n] != nodeFree {
							return false
						}
						delete(shadow, n)
					}
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
			if tb.FreeCount()+tb.FailedCount()+tb.LeasedCount() != nodes {
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
			got := tb.snapshot().Leases
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

// scanTable is the oracle the table's maintained state is held to: its
// free and failed nodes and its leases, from one scan of the owner
// slots.
func scanTable(tb *leaseTable) RoundInfo {
	s := RoundInfo{Leases: map[int][]int{}}
	for n, o := range tb.owner {
		switch o {
		case nodeFree:
			s.Free = append(s.Free, n)
		case nodeFailed:
			s.Failed = append(s.Failed, n)
		default:
			s.Leases[o] = append(s.Leases[o], n)
		}
	}
	return s
}

// sameInfo reports whether two snapshots hold the same nodes, ignoring
// the round and nil against empty.
func sameInfo(a, b RoundInfo) bool {
	return slices.Equal(a.Free, b.Free) && slices.Equal(a.Failed, b.Failed) &&
		maps.EqualFunc(a.Leases, b.Leases, slices.Equal[[]int])
}

// cloneInfo deep-copies a snapshot.
func cloneInfo(ri RoundInfo) RoundInfo {
	c := RoundInfo{Round: ri.Round, Free: slices.Clone(ri.Free), Failed: slices.Clone(ri.Failed), Leases: map[int][]int{}}
	for id, ns := range ri.Leases {
		c.Leases[id] = slices.Clone(ns)
	}
	return c
}

// checkTable holds what the table keeps current on every write — the
// free list, the counts and the snapshot — to a scan of its owner
// slots.
func checkTable(tb *leaseTable) error {
	want := scanTable(tb)
	leased := 0
	for _, ns := range want.Leases {
		leased += len(ns)
	}
	free := tb.Free()
	switch {
	case !slices.Equal(free, want.Free) || cap(free) != len(free):
		return fmt.Errorf("Free() = %v (cap %d), scan %v", free, cap(free), want.Free)
	case tb.FreeCount() != len(want.Free) || tb.FailedCount() != len(want.Failed) || tb.LeasedCount() != leased:
		return fmt.Errorf("counts free %d failed %d leased %d, scan %d %d %d",
			tb.FreeCount(), tb.FailedCount(), tb.LeasedCount(), len(want.Free), len(want.Failed), leased)
	}
	snap := tb.snapshot()
	if !sameInfo(snap, want) {
		return fmt.Errorf("snapshot %+v, scan %+v", snap, want)
	}
	for _, ns := range snap.Leases {
		if cap(ns) != len(ns) {
			return fmt.Errorf("snapshot lease %v not capped (cap %d)", ns, cap(ns))
		}
	}
	return nil
}

// FuzzLeaseTable drives the table through arbitrary Acquire,
// ReleaseNodes, Release, Fail and Join sequences — acquiring slices of
// Free's own result and failing leased nodes among them — and after
// every operation holds the free list, the counts and the snapshot to a
// scan of the owner slots. A refused operation must leave the owner
// slots as they were, and a snapshot once returned must never change.
// Each tenant's lease is tracked the way the runner tracks it, keeping
// a node that failed while leased, and Release of it must leave the
// tenant holding nothing.
func FuzzLeaseTable(f *testing.F) {
	f.Add([]byte{0, 0, 15, 3, 5, 4, 2, 1, 19, 0, 9, 2})
	f.Add([]byte{40, 1, 3, 1, 5, 1, 35, 0, 13, 1, 4, 7, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nodes, tenants = 9, 4
		tb := newLeaseTable(nodes)
		leases := make([][]int, tenants) // each tenant's lease, failed nodes kept
		old, oldCopy := tb.snapshot(), cloneInfo(tb.snapshot())
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			job, node := int(op/5)%tenants, arg%nodes
			before := slices.Clone(tb.owner)
			var err error
			switch op % 5 {
			case 0: // acquire: a run from node, or a prefix of Free itself
				var req []int
				if free := tb.Free(); arg >= nodes && len(free) > 0 {
					req = free[:1+arg%len(free)]
				} else {
					for n := node; n < nodes && len(req) < 1+int(op/20)%3; n++ {
						req = append(req, n)
					}
				}
				owned := slices.Clone(req)
				if err = tb.Acquire(job, req); err == nil {
					leases[job] = append(leases[job], owned...)
				}
			case 1:
				if err = tb.ReleaseNodes(job, []int{node}); err == nil {
					leases[job] = slices.DeleteFunc(leases[job], func(n int) bool { return n == node })
				}
			case 2:
				tb.Release(job, leases[job])
				leases[job] = nil
				for n, o := range tb.owner {
					if o == job {
						t.Fatalf("op %d: tenant %d still holds node %d after releasing its lease", i/2, job, n)
					}
				}
			case 3:
				_, err = tb.Fail(node)
			case 4:
				err = tb.Join(node)
			}
			if err != nil && !slices.Equal(tb.owner, before) {
				t.Fatalf("op %d: refused (%v) but owners moved %v -> %v", i/2, err, before, tb.owner)
			}
			if err := checkTable(tb); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if !sameInfo(old, oldCopy) {
				t.Fatalf("op %d: an earlier snapshot changed: %+v, was %+v", i/2, old, oldCopy)
			}
			old, oldCopy = tb.snapshot(), cloneInfo(tb.snapshot())
		}
	})
}
