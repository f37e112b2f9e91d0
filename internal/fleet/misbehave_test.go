package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// misbehaver is fifo with one bad PlaceNodes answer, for tenant 1, and
// a Rebalance that tries bad Shrinks and Grows on every running tenant
// each round. Every bad call must be refused and change nothing.
type misbehaver struct {
	fifoScheduler
	t      *testing.T
	place  func(ops Ops, grant int) []int
	probes int
}

func (*misbehaver) Name() string { return "misbehave" }

func (m *misbehaver) PlaceNodes(ops Ops, head JobView, grant int) []int {
	if head.ID == 1 {
		return m.place(ops, grant)
	}
	return m.fifoScheduler.PlaceNodes(ops, head, grant)
}

// leaseState is what a refused Ops call must leave as it was: the free
// set, each running tenant's lease as its view reads it, and the lease
// table's own per-tenant map, scanned from its owner slots.
func leaseState(ops Ops) (free []int, views map[int][]int, table map[int][]int) {
	views = map[int][]int{}
	for _, v := range ops.Running() {
		views[v.ID] = slices.Clone(v.Nodes)
	}
	return slices.Clone(ops.Free()), views, scanTable(ops.(schedOps).f.table).Leases
}

func (m *misbehaver) Rebalance(ops Ops) {
	m.t.Helper()
	free, views, table := leaseState(ops)
	for _, v := range ops.Running() {
		outside := -1
		for n := 0; n < ops.Healthy(); n++ {
			if !slices.Contains(v.Nodes, n) {
				outside = n
				break
			}
		}
		refuse := func(what string, ok bool) {
			m.t.Helper()
			m.probes++
			if ok {
				m.t.Errorf("tenant %d: %s succeeded", v.ID, what)
			}
		}
		refuse("Shrink of a node outside the lease", ops.Shrink(v.ID, []int{outside}, "bad"))
		refuse("Shrink of the whole lease", ops.Shrink(v.ID, slices.Clone(v.Nodes), "bad"))
		for id, held := range views {
			refuse(fmt.Sprintf("Grow onto a leased node of tenant %d", id), ops.Grow(v.ID, held[:1], "bad"))
		}
		if len(free) > 0 {
			refuse("Grow onto a repeated free node", ops.Grow(v.ID, []int{free[0], free[0]}, "bad"))
		}
	}
	gotFree, gotViews, gotTable := leaseState(ops)
	if !reflect.DeepEqual(gotFree, free) || !reflect.DeepEqual(gotViews, views) || !reflect.DeepEqual(gotTable, table) {
		m.t.Errorf("refused Ops calls changed the leases:\n free %v -> %v\n views %v -> %v\n table %v -> %v",
			free, gotFree, views, gotViews, table, gotTable)
	}
}

// TestMisbehavingScheduler: a custom Scheduler whose PlaceNodes returns
// a repeated node, a node another tenant holds, or fewer nodes than it
// granted gets its head rejected with an error naming the scheduler;
// the running tenant's lease is untouched and the queue moves on to the
// next tenant in the same round. Shrinks outside the lease or of the
// whole lease, and Grows onto leased or repeated nodes, are refused and
// leave the leases, the free set and the lease table as they were.
func TestMisbehavingScheduler(t *testing.T) {
	spec, corpus := buildSpec(t, 5, 32)
	for _, tc := range []struct {
		name  string
		place func(ops Ops, grant int) []int
	}{
		{"repeated", func(ops Ops, grant int) []int {
			free := ops.Free()
			return []int{free[0], free[0]}
		}},
		{"held", func(ops Ops, grant int) []int {
			return []int{ops.Running()[0].Nodes[0], ops.Free()[0]}
		}},
		{"short", func(ops Ops, grant int) []int { return ops.Free()[:grant-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &misbehaver{t: t, place: tc.place}
			var first []int
			cfg := Config{
				Cluster: spec.Cluster, Policy: m,
				Jobs: []JobSpec{
					{Name: "a", Train: newTrainTemplate(spec, corpus), Iters: 3, MinNodes: 2, MaxNodes: 2},
					{Name: "b", Train: newTrainTemplate(spec, corpus), Iters: 3, MinNodes: 2, MaxNodes: 2, Arrive: 1},
					{Name: "c", Train: newTrainTemplate(spec, corpus), Iters: 3, MinNodes: 2, MaxNodes: 2, Arrive: 1},
				},
				OnRound: func(info RoundInfo) {
					a, ok := info.Leases[0]
					if !ok {
						return
					}
					if first == nil {
						first = a
					} else if !reflect.DeepEqual(a, first) {
						t.Errorf("round %d: tenant a's lease moved from %v to %v", info.Round, first, a)
					}
				},
			}
			res, err := runChecked(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b, c := res.Jobs[0], res.Jobs[1], res.Jobs[2]
			if b.Err == nil || !strings.Contains(b.Err.Error(), "fleet: scheduler misbehave") {
				t.Errorf("misplaced head: Err = %v, want one naming fleet: scheduler misbehave", b.Err)
			}
			if b.Started != -1 || b.Finished != 1 {
				t.Errorf("misplaced head: started %d, finished %d; want rejected at round 1", b.Started, b.Finished)
			}
			if c.Err != nil || c.Started != 1 {
				t.Errorf("next in queue: started %d, err %v; want admitted at round 1", c.Started, c.Err)
			}
			for _, jr := range []JobResult{a, c} {
				if jr.Err != nil || jr.Result == nil || jr.Resizes != 0 {
					t.Errorf("tenant %s: err %v, resizes %d; want a clean run on its first lease", jr.Name, jr.Err, jr.Resizes)
				}
			}
			if len(first) != 2 {
				t.Errorf("tenant a held %v, want 2 nodes", first)
			}
			if m.probes == 0 {
				t.Error("Rebalance probed no running tenant")
			}
		})
	}
}
