package reorder

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"disttrain/internal/pipeline"
)

// --- Algorithm 1: intra-microbatch reordering ---

func TestIntraReorderFigure11(t *testing.T) {
	// Figure 6/11: four samples, sizes such that naive order [1,2 | 3,4]
	// puts the two big ones in DP1. LPT must split them.
	sizes := map[int]float64{1: 10, 2: 3, 3: 9, 4: 2}
	items := []int{1, 2, 3, 4}
	ordered, groups, err := IntraReorder(items, func(i int) float64 { return sizes[i] }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) != 4 || len(groups) != 2 {
		t.Fatalf("shape: %d items, %d groups", len(ordered), len(groups))
	}
	load := func(g []int) float64 {
		s := 0.0
		for _, i := range g {
			s += sizes[i]
		}
		return s
	}
	// Balanced split: {10,2} vs {9,3}.
	if math.Abs(load(groups[0])-load(groups[1])) > 1.0 {
		t.Errorf("unbalanced groups: %v=%g vs %v=%g",
			groups[0], load(groups[0]), groups[1], load(groups[1]))
	}
	// Naive split straggler = 19; LPT must beat it.
	naive := math.Max(sizes[1]+sizes[3], sizes[2]+sizes[4])
	if got := maxGroupLoad(groups, func(i int) float64 { return sizes[i] }); got >= naive {
		t.Errorf("LPT max load %g not better than naive %g", got, naive)
	}
}

func TestIntraReorderErrorsAndEdges(t *testing.T) {
	if _, _, err := IntraReorder([]int{1}, func(int) float64 { return 1 }, 0); err == nil {
		t.Error("m=0 accepted")
	}
	ordered, groups, err := IntraReorder(nil, func(int) float64 { return 1 }, 3)
	if err != nil || len(ordered) != 0 || len(groups) != 3 {
		t.Error("empty input mishandled")
	}
	// More groups than items: still a valid partition.
	_, groups, err = IntraReorder([]int{5, 6}, func(i int) float64 { return float64(i) }, 4)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, g := range groups {
		nonEmpty += len(g)
	}
	if nonEmpty != 2 {
		t.Errorf("items lost: %d placed", nonEmpty)
	}
}

// Property: the reordering is a permutation (convergence semantics rest
// on this) and LPT satisfies its 4/3 approximation bound against the
// brute-force optimum for small instances.
func TestIntraReorderPermutationAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8) + 2
		m := rng.Intn(3) + 2
		sizes := make([]float64, n)
		items := make([]int, n)
		for i := range items {
			items[i] = i
			sizes[i] = rng.Float64()*10 + 0.1
		}
		size := func(i int) float64 { return sizes[i] }
		ordered, groups, err := IntraReorder(items, size, m)
		if err != nil {
			t.Fatal(err)
		}
		// Permutation check.
		seen := make([]bool, n)
		for _, it := range ordered {
			if seen[it] {
				t.Fatalf("item %d duplicated", it)
			}
			seen[it] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("item %d lost", i)
			}
		}
		// 4/3-approximation against brute force (m^n assignments).
		if n <= 7 {
			opt := bruteForcePartition(sizes, m)
			got := maxGroupLoad(groups, size)
			if got > opt*(4.0/3.0)+1e-9 {
				t.Fatalf("LPT load %g exceeds 4/3 * OPT %g", got, opt)
			}
		}
	}
}

// maxGroupLoad is the heaviest group's total size — the
// intra-microbatch straggler's cost the partition tests bound.
func maxGroupLoad(groups [][]int, size func(int) float64) float64 {
	worst := 0.0
	for _, g := range groups {
		load := 0.0
		for _, it := range g {
			load += size(it)
		}
		worst = math.Max(worst, load)
	}
	return worst
}

func bruteForcePartition(sizes []float64, m int) float64 {
	n := len(sizes)
	best := math.Inf(1)
	assign := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			loads := make([]float64, m)
			for j, g := range assign {
				loads[g] += sizes[j]
			}
			worst := 0.0
			for _, l := range loads {
				worst = math.Max(worst, l)
			}
			best = math.Min(best, worst)
			return
		}
		for g := 0; g < m; g++ {
			assign[i] = g
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// --- Algorithm 2: inter-microbatch reordering ---

// randomMBs builds l microbatches over p stages with a heterogeneous
// first (encoder) and last (generator) stage and a constant LLM middle.
func randomMBs(rng *rand.Rand, l, p int) []Microbatch {
	out := make([]Microbatch, l)
	for i := range out {
		fwd := make([]float64, p)
		bwd := make([]float64, p)
		for s := 0; s < p; s++ {
			switch s {
			case 0, p - 1:
				fwd[s] = 0.2 + rng.Float64()*1.5
			default:
				fwd[s] = 1.0
			}
			bwd[s] = 2 * fwd[s]
		}
		out[i] = Microbatch{Index: i, Fwd: fwd, Bwd: bwd}
	}
	return out
}

func simulateOrder(t *testing.T, order []Microbatch) float64 {
	t.Helper()
	p := len(order[0].Fwd)
	w := pipeline.Work{Fwd: make([][]float64, p), Bwd: make([][]float64, p)}
	for s := 0; s < p; s++ {
		w.Fwd[s] = make([]float64, len(order))
		w.Bwd[s] = make([]float64, len(order))
		for m, mb := range order {
			w.Fwd[s][m] = mb.Fwd[s]
			w.Bwd[s][m] = mb.Bwd[s]
		}
	}
	res, err := pipeline.Simulate(pipeline.OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}
	return res.IterTime
}

func TestInterReorderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		l := rng.Intn(12) + 1
		p := rng.Intn(4) + 2
		mbs := randomMBs(rng, l, p)
		got, err := InterReorder(mbs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != l {
			t.Fatalf("returned %d of %d microbatches", len(got), l)
		}
		var idx []int
		for _, m := range got {
			idx = append(idx, m.Index)
		}
		sort.Ints(idx)
		for i, v := range idx {
			if v != i {
				t.Fatalf("not a permutation: %v", idx)
			}
		}
	}
}

func TestInterReorderValidation(t *testing.T) {
	if _, err := InterReorder([]Microbatch{{Index: 0}}, nil); err == nil {
		t.Error("empty stage times accepted")
	}
	bad := []Microbatch{
		{Index: 0, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
		{Index: 0, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
		{Index: 2, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
		{Index: 3, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
	}
	if _, err := InterReorder(bad, nil); err == nil {
		t.Error("duplicate indices accepted")
	}
	mismatch := []Microbatch{
		{Index: 0, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
		{Index: 1, Fwd: []float64{1}, Bwd: []float64{2}},
		{Index: 2, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
		{Index: 3, Fwd: []float64{1, 1}, Bwd: []float64{2, 2}},
	}
	if _, err := InterReorder(mismatch, nil); err == nil {
		t.Error("inconsistent stage counts accepted")
	}
	out, err := InterReorder(nil, nil)
	if err != nil || out != nil {
		t.Error("nil input mishandled")
	}
}

// The reordering must not hurt — and usually helps — pipeline makespan
// versus random order, across many heterogeneous workloads. This is the
// mechanism behind Figure 16's gains.
func TestInterReorderImprovesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	improved, regressions := 0, 0
	var worstRegression float64
	trials := 60
	for trial := 0; trial < trials; trial++ {
		l := rng.Intn(10) + 8
		p := rng.Intn(3) + 3
		mbs := randomMBs(rng, l, p)
		before := simulateOrder(t, mbs)
		order, err := InterReorder(mbs, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := simulateOrder(t, order)
		if after < before-1e-9 {
			improved++
		}
		if after > before*1.02 {
			regressions++
			worstRegression = math.Max(worstRegression, after/before)
		}
	}
	if improved < trials/2 {
		t.Errorf("reordering improved only %d/%d workloads", improved, trials)
	}
	if regressions > trials/10 {
		t.Errorf("reordering regressed %d/%d workloads (worst %.3fx)", regressions, trials, worstRegression)
	}
}

// Rear reservation: the smallest microbatches (after the opener) must
// land at the end of the order, shrinking the unfilled tail intervals.
func TestInterReorderRearIsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, p := 12, 4
	mbs := randomMBs(rng, l, p)
	order, err := InterReorder(mbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	bySize := append([]Microbatch(nil), mbs...)
	sortBySize(bySize)
	smallSet := map[int]bool{}
	for _, m := range bySize[:p] { // opener + p-1 rear candidates
		smallSet[m.Index] = true
	}
	rear := order[len(order)-(p-1):]
	for _, m := range rear {
		if !smallSet[m.Index] {
			t.Errorf("rear microbatch %d (size %.2f) is not among the smallest",
				m.Index, m.HeteroSize())
		}
	}
	// The opener is the single smallest.
	if order[0].Index != bySize[0].Index {
		t.Errorf("first microbatch %d is not the smallest (%d)", order[0].Index, bySize[0].Index)
	}
}

func TestInterReorderVPP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mbs := randomMBs(rng, 10, 4)
	plain, err := InterReorder(mbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	vpp, err := new(Reorderer).InterReorderVPP(mbs, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vpp) != len(plain) {
		t.Fatal("VPP variant lost microbatches")
	}
	// Still a permutation, with original (unscaled) times restored.
	seen := map[int]bool{}
	for _, m := range vpp {
		if seen[m.Index] {
			t.Fatal("duplicate in VPP order")
		}
		seen[m.Index] = true
		if m.Fwd[0] != mbs[m.Index].Fwd[0] {
			t.Fatal("VPP variant must return original stage times")
		}
	}
	// vpp=1 falls back to the plain algorithm.
	one, err := new(Reorderer).InterReorderVPP(mbs, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i].Index != plain[i].Index {
			t.Fatal("vpp=1 must match plain InterReorder")
		}
	}
}

// Property: permutation preservation for arbitrary sizes via quick.
func TestInterReorderPermutationProperty(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		p := int(pRaw%4) + 2
		mbs := make([]Microbatch, len(raw))
		for i, r := range raw {
			fwd := make([]float64, p)
			bwd := make([]float64, p)
			for s := range fwd {
				fwd[s] = float64(r%16)/4 + 0.1
				bwd[s] = 2 * fwd[s]
			}
			mbs[i] = Microbatch{Index: i, Fwd: fwd, Bwd: bwd}
		}
		out, err := InterReorder(mbs, nil)
		if err != nil || len(out) != len(mbs) {
			return false
		}
		seen := map[int]bool{}
		for _, m := range out {
			if seen[m.Index] {
				return false
			}
			seen[m.Index] = true
		}
		return len(seen) == len(mbs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeteroSize(t *testing.T) {
	m := Microbatch{Fwd: []float64{3, 10, 10, 4}}
	if got := m.HeteroSize(); got != 7 {
		t.Errorf("HeteroSize = %g, want encoder+generator = 7", got)
	}
	if (Microbatch{}).HeteroSize() != 0 {
		t.Error("empty microbatch size should be 0")
	}
}

// --- the keyed Reorderer vs Algorithm 2 over microbatch structs ---

// sortBySize orders ascending by heterogeneous size, stable on index:
// the struct sort Algorithm 2 ran before it sorted keys.
func sortBySize(mbs []Microbatch) {
	slices.SortStableFunc(mbs, func(a, b Microbatch) int {
		return cmp.Or(cmp.Compare(a.HeteroSize(), b.HeteroSize()), cmp.Compare(a.Index, b.Index))
	})
}

// referenceInterReorderVPP is Algorithm 2 as it ran on microbatch
// structs: a map duplicate check, sortBySize over a copy of the rank,
// closest-fit placement from that pool, and the vpp > 1 virtual chunks
// mapped back to the caller's microbatches through the map. The
// Reorderer must reproduce it index for index, errors included.
func referenceInterReorderVPP(mbs []Microbatch, p2p []float64, vpp int) ([]Microbatch, error) {
	in := mbs
	if vpp > 1 {
		in = make([]Microbatch, len(mbs))
		for i, m := range mbs {
			in[i] = Microbatch{Index: m.Index, Fwd: make([]float64, len(m.Fwd)), Bwd: make([]float64, len(m.Bwd))}
			for s, v := range m.Fwd {
				in[i].Fwd[s] = v / float64(vpp)
			}
			for s, v := range m.Bwd {
				in[i].Bwd[s] = v / float64(vpp)
			}
		}
	}
	l := len(in)
	if l == 0 {
		return nil, nil
	}
	p := len(in[0].Fwd)
	if p == 0 {
		return nil, fmt.Errorf("reorder: microbatches carry no stage times")
	}
	at := map[int]int{}
	for i, m := range in {
		if len(m.Fwd) != p || len(m.Bwd) != p {
			return nil, fmt.Errorf("reorder: microbatch %d has inconsistent stage count", m.Index)
		}
		if _, dup := at[m.Index]; dup {
			return nil, fmt.Errorf("reorder: duplicate microbatch index %d", m.Index)
		}
		at[m.Index] = i
	}
	order := append([]Microbatch(nil), in...)
	if l > 2 && p > 1 {
		pool := append([]Microbatch(nil), in...)
		sortBySize(pool)
		var pred pipeline.IntervalPredictor
		pred.Reset(p, p2p)
		var intervals []pipeline.Interval
		order = order[:0]
		place := func(m Microbatch) {
			order = append(order, m)
			intervals = append(intervals, pred.Append(m.Fwd, m.Bwd))
		}
		place(pool[0])
		pool = pool[1:]
		rear := pool[:min(p-1, len(pool))]
		pool = pool[len(rear):]
		used := make([]bool, len(pool))
		for i, left := 1, len(pool); left > 0 && i <= l-p; i++ {
			want := 1
			if i == 1 {
				want = p - 1
			}
			picked := referenceClosest(pool, used, want, intervals[i-1].Volume())
			for _, m := range picked {
				place(m)
			}
			left -= len(picked)
		}
		for i, m := range pool {
			if !used[i] {
				place(m)
			}
		}
		order = append(order, rear...)
	}
	for i, m := range order {
		order[i] = mbs[at[m.Index]]
	}
	return order, nil
}

// referenceClosest is selectClosest over microbatch structs.
func referenceClosest(pool []Microbatch, used []bool, k int, target float64) []Microbatch {
	var picked []Microbatch
	sum := 0.0
	for len(picked) < k {
		bestIdx := -1
		bestDist := math.Abs(sum - target)
		for i, m := range pool {
			if used[i] {
				continue
			}
			if d := math.Abs(sum + m.Fwd[0] - target); bestIdx == -1 || d < bestDist {
				bestIdx, bestDist = i, d
			}
		}
		if bestIdx == -1 || (len(picked) > 0 && bestDist >= math.Abs(sum-target)) {
			break
		}
		picked = append(picked, pool[bestIdx])
		sum += pool[bestIdx].Fwd[0]
		used[bestIdx] = true
	}
	return picked
}

// TestSortKeysIsStableSizeOrder pins the keyed sort to the stable sort
// on size it replaced, at lengths from a DP rank's microbatches to well
// past a global batch, over sizes full of ties and of the values where
// integer ranks could disagree with cmp.Compare: NaN, ±0, ±Inf and the
// smallest denormals.
func TestSortKeysIsStableSizeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -1.5, 1.5, 2, -2}
	for _, n := range []int{0, 1, 2, 7, 13, 96, 300} {
		for trial := 0; trial < 20; trial++ {
			sizes := make([]float64, n)
			for i := range sizes {
				sizes[i] = values[rng.Intn(len(values))]
			}
			for _, desc := range []bool{false, true} {
				keys := make([]key, n)
				for i, sz := range sizes {
					keys[i] = key{rank: sizeRank(sz), index: i}
					if desc {
						keys[i].rank = ^keys[i].rank
					}
				}
				slices.SortFunc(keys, key.compare)
				want := make([]int, n)
				for i := range want {
					want[i] = i
				}
				slices.SortStableFunc(want, func(a, b int) int {
					if desc {
						return cmp.Compare(sizes[b], sizes[a])
					}
					return cmp.Compare(sizes[a], sizes[b])
				})
				for i, k := range keys {
					if k.index != want[i] {
						t.Fatalf("n=%d desc=%v: position %d holds %d (size %v), stable sort %d (size %v)",
							n, desc, i, k.index, sizes[k.index], want[i], sizes[want[i]])
					}
				}
			}
		}
	}
}

// --- scratch-reusing Partitioner vs the pre-optimization reference ---

// referencePartition is the original allocation-per-call Algorithm 1:
// stable descending sort, then greedy least-loaded placement. The
// Partitioner must reproduce it index for index.
func referencePartition(sizes []float64, m int) [][]int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sizes[idx[a]] > sizes[idx[b]] })
	groups := make([][]int, m)
	loads := make([]float64, m)
	for _, i := range idx {
		min := 0
		for g := 1; g < m; g++ {
			if loads[g] < loads[min] {
				min = g
			}
		}
		groups[min] = append(groups[min], i)
		loads[min] += sizes[i]
	}
	return groups
}

// referenceRebalance is the original sort-based surplus redistribution
// (the trainer's pinned rebalance, on indices): trim each group to
// perRank, stable-sort the concatenated tails ascending, refill
// underfull groups in order.
func referenceRebalance(groups [][]int, perRank int, sizes []float64) [][]int {
	out := make([][]int, len(groups))
	var surplus []int
	for d, g := range groups {
		out[d] = append([]int(nil), g...)
		if len(out[d]) > perRank {
			surplus = append(surplus, out[d][perRank:]...)
			out[d] = out[d][:perRank]
		}
	}
	sort.SliceStable(surplus, func(a, b int) bool { return sizes[surplus[a]] < sizes[surplus[b]] })
	for d := range out {
		for len(out[d]) < perRank && len(surplus) > 0 {
			out[d] = append(out[d], surplus[0])
			surplus = surplus[1:]
		}
	}
	return out
}

// TestPartitionerMatchesReference fuzzes the scratch-reusing
// Partitioner (sort-free Rebalance, reused backing slices) against the
// reference implementations on size distributions dominated by ties —
// the case where any stability bug in the backwards tie-block walk or
// the k-way merge would surface. One Partitioner is reused across all
// trials, so stale scratch from a previous shape would also be caught.
func TestPartitionerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p Partitioner
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(48)
		m := 1 + rng.Intn(8)
		sizes := make([]float64, n)
		for i := range sizes {
			// Few distinct values: most comparisons are ties.
			sizes[i] = float64(rng.Intn(4))
		}
		got, err := p.Partition(sizes, m)
		if err != nil {
			t.Fatal(err)
		}
		want := referencePartition(sizes, m)
		if !equalGroups(got, want) {
			t.Fatalf("trial %d (n=%d m=%d sizes=%v):\nPartition = %v\nreference = %v",
				trial, n, m, sizes, got, want)
		}
		perRank := 1 + rng.Intn(n/m+2)
		wantBal := referenceRebalance(want, perRank, sizes)
		gotBal := p.Rebalance(got, perRank, sizes)
		if !equalGroups(gotBal, wantBal) {
			t.Fatalf("trial %d (n=%d m=%d perRank=%d sizes=%v):\nRebalance = %v\nreference = %v",
				trial, n, m, perRank, sizes, gotBal, wantBal)
		}
	}
}

func equalGroups(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return false
		}
		for j := range a[g] {
			if a[g][j] != b[g][j] {
				return false
			}
		}
	}
	return true
}
