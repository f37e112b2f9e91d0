package main

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Everything a workload feeds the program is generated here from
// (seed, stream, op index) and nothing else, so the set of ops is the
// same on every run and every commit. The program itself never sees
// the seed: it receives scenario text, arrival rounds, batch
// geometries, node counts and corpus seeds.

// rng is splitmix64: eight lines the benchmark owns, so the generated
// inputs cannot move when a Go release retunes math/rand.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one (seed, stream, index).
func newRNG(seed uint64, stream string, i int) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream)) // hash.Hash.Write never fails
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// corpusSeed is the data.Spec.Seed of the corpus op i trains on (or
// fetches from).
func corpusSeed(seed uint64, stream string, i int) int64 {
	return int64(newRNG(seed, stream, i).next() >> 1)
}

// churnJob is one fleet-churn job template: a batch geometry plus its
// scheduling envelope.
type churnJob struct {
	Batch    int
	Iters    int
	MaxNodes int
	Arrive   int
	Class    string
}

// churnOp is the generated input of one fleet-churn op.
type churnOp struct {
	Jobs     []churnJob
	Scenario string // fleet-scope scenario text for scenario.Parse
	Tenants  int    // instances the templates and the scenario submit
}

// Fleet-churn shape. 48 nodes, every tenant elastic between 2 nodes
// and its template's MaxNodes.
const (
	churnNodes    = 48
	churnMinNodes = 2
)

// churnBatches are the batch geometries templates draw from; each is a
// distinct plan fingerprint at every lease shape.
var churnBatches = []int{16, 24, 32, 40, 48, 64}

var churnClasses = []string{"low", "normal", "normal", "high"}

// genChurn generates op i of fleet-churn: 4 to 6 templates with
// staggered arrivals and three priority classes, plus a scenario of
// staggered single arrivals, one herd, one preempt storm, two
// node-fail/node-join pairs and one departure. About 24 tenants.
func genChurn(seed uint64, i int) churnOp {
	r := newRNG(seed, "fleet-churn", i)
	n := r.between(4, 6)
	// A rotation of the geometry list gives n distinct batches.
	first := r.intn(len(churnBatches))
	op := churnOp{}
	for k := 0; k < n; k++ {
		op.Jobs = append(op.Jobs, churnJob{
			Batch:    churnBatches[(first+k)%len(churnBatches)],
			Iters:    r.between(3, 6),
			MaxNodes: r.between(churnMinNodes, 6),
			Arrive:   r.intn(3),
			Class:    churnClasses[r.intn(len(churnClasses))],
		})
	}
	op.Tenants = n
	var ev []string
	for k := 24 - n - 8; k > 0; k-- {
		ev = append(ev, fmt.Sprintf("job-arrive:iter=%d,job=%d", r.between(1, 10), r.intn(n)))
		op.Tenants++
	}
	herd := r.between(3, 5)
	ev = append(ev, fmt.Sprintf("herd:iter=%d,job=%d,count=%d", r.between(1, 6), r.intn(n), herd))
	storm := r.between(2, 3)
	ev = append(ev, fmt.Sprintf("preempt-storm:iter=%d,job=%d,class=high,count=%d", r.between(3, 8), r.intn(n), storm))
	op.Tenants += herd + storm
	for k := 0; k < 2; k++ {
		node, at := r.intn(churnNodes), r.between(2, 8)
		ev = append(ev,
			fmt.Sprintf("node-fail:iter=%d,node=%d", at, node),
			fmt.Sprintf("node-join:iter=%d,node=%d", at+r.between(2, 4), node))
	}
	// Tenant ids follow submission order and every template has arrived
	// by round 2, so from round 3 on any id below n names a real tenant.
	ev = append(ev, fmt.Sprintf("job-depart:iter=%d,job=%d", r.between(3, 6), r.intn(n)))
	op.Scenario = strings.Join(ev, "; ")
	return op
}

// sweepSpec is one plan request of a plan-sweep op, as plain numbers.
type sweepSpec struct {
	Model  string // 9b, 15b or 72b
	Freeze string // "" for full training, else a model.FrozenSettings name
	Nodes  int
	Batch  int
	// Neighbour is the node count of the N±1 request that follows the
	// cold one and is warm-seeded from it.
	Neighbour int
}

// sweepRows are the four scales of the paper's Table 3 (nodes, global
// batch). Every op plans each of the three models near each scale, so
// ops cost about the same and differ only in the jitter below.
var sweepRows = [][2]int{{14, 240}, {41, 480}, {81, 960}, {162, 1920}}

var sweepModels = []string{"9b", "15b", "72b"}

// sweepFrozen are the model.FrozenSettings names a third of the grid
// plans under.
var sweepFrozen = []string{"all-frozen", "encoder-only", "llm-only", "generator-only"}

// genSweep generates op i of plan-sweep: a grid of G = 12 specs, three
// models by four Table 3 scales with the node count jittered by up to
// two nodes, one model per scale under a frozen setting. Families
// (model, freeze, batch) are distinct within an op, so no cold request
// can be seeded by another one's incumbent.
func genSweep(seed uint64, i int) []sweepSpec {
	r := newRNG(seed, "plan-sweep", i)
	var grid []sweepSpec
	for _, row := range sweepRows {
		frozen := r.intn(len(sweepModels))
		for m, name := range sweepModels {
			s := sweepSpec{Model: name, Nodes: row[0] + r.between(-2, 2), Batch: row[1]}
			if m == frozen {
				s.Freeze = sweepFrozen[r.intn(len(sweepFrozen))]
			}
			s.Neighbour = s.Nodes + 1 - 2*r.intn(2)
			grid = append(grid, s)
		}
	}
	return grid
}
