package fleet

import (
	"fmt"
	"strings"
	"testing"

	"disttrain/internal/cluster"
)

// checkRound asserts one round's lease-table invariants: free nodes,
// failed nodes and every tenant's lease partition the fleet — each node
// is held exactly once, so no node sits in two leases.
func checkRound(t *testing.T, nodes int, info RoundInfo) {
	t.Helper()
	holder := map[int]string{}
	hold := func(who string, ns []int) {
		for _, n := range ns {
			if prev, dup := holder[n]; dup {
				t.Errorf("round %d: node %d held by %s and %s", info.Round, n, prev, who)
			}
			holder[n] = who
		}
	}
	hold("free", info.Free)
	hold("failed", info.Failed)
	for id, ns := range info.Leases {
		hold(fmt.Sprintf("tenant %d", id), ns)
	}
	for n := 0; n < nodes; n++ {
		if _, ok := holder[n]; !ok {
			t.Errorf("round %d: node %d is neither free, failed nor leased", info.Round, n)
		}
	}
	if len(holder) != nodes {
		t.Errorf("round %d: %d distinct nodes on a %d-node fleet", info.Round, len(holder), nodes)
	}
}

// runChecked is Run with the per-round invariants on — what every
// fleet scenario test runs through. checkRound rides the OnRound seam
// ahead of the test's own observer; once the run is over (a RoundInfo
// names tenants by id only, and the Result says which JobSpec each id
// was built from and when it ran) every lease any tenant held in any
// round is held to its [MinNodes, MaxNodes] envelope, and belongs to a
// tenant that had started and not yet finished: nodes are held only by
// running tenants.
func runChecked(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	var rounds []RoundInfo
	observe := cfg.OnRound
	cfg.OnRound = func(info RoundInfo) {
		checkRound(t, cfg.Cluster.Nodes, info)
		rounds = append(rounds, info)
		if observe != nil {
			observe(info)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		return res, err
	}
	if len(rounds) != res.Rounds {
		t.Errorf("OnRound fired %d times over %d rounds", len(rounds), res.Rounds)
	}
	for _, info := range rounds {
		for id, ns := range info.Leases {
			jr := res.Jobs[id]
			if jr.Started < 0 || info.Round < jr.Started || info.Round > jr.Finished {
				t.Errorf("round %d: tenant %d holds %v outside its run (started %d, finished %d)",
					info.Round, id, ns, jr.Started, jr.Finished)
			}
			js := cfg.Jobs[jr.Spec]
			lo, hi := max(js.MinNodes, 1), js.MaxNodes
			if hi == 0 {
				hi = cfg.Cluster.Nodes
			}
			if len(ns) < lo || len(ns) > hi {
				t.Errorf("round %d: tenant %d holds %d nodes, outside its [%d,%d]", info.Round, id, len(ns), lo, hi)
			}
		}
	}
	return res, nil
}

// TestTransitionLegality drives the one writer of tenant state through
// all 9 (from, to) pairs: exactly the four moves of legalMoves apply
// — with the bookkeeping each implies — and the other five panic,
// naming the move, leaving the tenant and the lease table untouched.
func TestTransitionLegality(t *testing.T) {
	legal := map[[2]int]bool{
		{stateQueued, stateRunning}: true,
		{stateQueued, stateDone}:    true,
		{stateRunning, stateQueued}: true,
		{stateRunning, stateDone}:   true,
	}
	passed := 0
	for from := range stateNames {
		for to := range stateNames {
			name := stateNames[from] + "->" + stateNames[to]
			f := &runner{table: newLeaseTable(4), round: 7}
			tn := &tenant{JobResult: JobResult{Name: "probe-0"}, state: from, waited: 3}
			holds := from == stateRunning
			if holds {
				tn.Lease = cluster.NewLease(1, 2)
				if err := f.table.Acquire(tn.ID, tn.Lease.Nodes); err != nil {
					t.Fatal(err)
				}
			}
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				f.transition(tn, to, "probe")
			}()
			if !legal[[2]int{from, to}] {
				msg, _ := panicked.(string)
				if !strings.Contains(msg, stateNames[from]+" -> "+stateNames[to]) || !strings.Contains(msg, "probe-0") || !strings.Contains(msg, "(probe)") {
					t.Errorf("%s: illegal move did not fail naming itself: %v", name, panicked)
				}
				if tn.state != from || tn.waited != 3 || (holds && f.table.FreeCount() != 2) {
					t.Errorf("%s: rejected move still touched the tenant: state %s, waited %d, %d free",
						name, stateNames[tn.state], tn.waited, f.table.FreeCount())
				}
				continue
			}
			if panicked != nil {
				t.Errorf("%s: legal move panicked: %v", name, panicked)
				continue
			}
			passed++
			if tn.state != to || tn.waited != 0 {
				t.Errorf("%s: left state %s, waited %d", name, stateNames[tn.state], tn.waited)
			}
			// Queued and done hold no nodes, and a queued tenant brings
			// none into running: every legal move leaves the table free.
			if got := f.table.FreeCount(); got != 4 || tn.Lease.NodeCount() != 0 {
				t.Errorf("%s: %d nodes free, lease %v; want all 4 free", name, got, tn.Lease)
			}
		}
	}
	if passed != 4 {
		t.Errorf("%d moves passed, want the 4 legal ones", passed)
	}
}
