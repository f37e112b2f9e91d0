// Package reorder implements DistTrain's disaggregated data reordering
// (§5): Algorithm 1, intra-microbatch reordering, balances sample load
// across data-parallel groups with the greedy LPT partition (4/3
// approximation of the NP-hard multiway number partitioning problem);
// Algorithm 2, inter-microbatch reordering, orders the microbatches of
// one DP rank to fill the 1F1B pipeline intervals of Figure 12 and hide
// encoder/generator stragglers inside the pipeline.
//
// Both algorithms only permute samples within a global batch, so they
// merely reorder the commutative gradient-accumulation sum and preserve
// the training's convergence semantics — a property the tests verify
// numerically.
//
// Aliasing: the package-level functions return slices the caller owns;
// a Partitioner's groups and a Reorderer's order alias that value's
// scratch until its next call. Microbatch.Fwd/Bwd are never copied —
// every returned Microbatch carries the caller's own slices.
//
// Both algorithms sort keys, not items: each item is priced once into a
// pointer-free (size, index) key, the keys are sorted and the items
// gathered. Ties on size break on the item's unique index, so the order
// is total and equals the stable sort on size.
package reorder

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"disttrain/internal/pipeline"
)

// IntraReorder is Algorithm 1: it partitions items across m data-
// parallel groups, assigning each item (largest first) to the currently
// least-loaded group, and returns the reordered sequence — the
// concatenation of the groups — plus the per-group assignment. DP group
// g consumes the g-th contiguous block of the returned order.
//
// size must be non-negative; ties keep the original order (stable).
// size is evaluated exactly once per item.
func IntraReorder[T any](items []T, size func(T) float64, m int) (ordered []T, groups [][]T, err error) {
	if m <= 0 {
		return nil, nil, fmt.Errorf("reorder: DP size %d must be positive", m)
	}
	if len(items) == 0 {
		return nil, make([][]T, m), nil
	}
	sizes := make([]float64, len(items))
	for i := range items {
		sizes[i] = size(items[i])
	}
	var p Partitioner
	idxGroups, err := p.Partition(sizes, m)
	if err != nil {
		return nil, nil, err
	}
	groups = make([][]T, m)
	ordered = make([]T, 0, len(items))
	for g, ig := range idxGroups {
		groups[g] = make([]T, len(ig))
		for j, i := range ig {
			groups[g][j] = items[i]
		}
		ordered = append(ordered, groups[g]...)
	}
	return ordered, groups, nil
}

// Partitioner runs Algorithm 1's LPT partition over item indices with
// all scratch (index permutation, group assignments, group backing)
// reused across calls — the trainer's per-iteration assignment path
// pools them so pricing and partitioning a global batch does not
// allocate. Not safe for concurrent use; the returned groups alias
// the partitioner's scratch and are valid until the next Partition
// call.
type Partitioner struct {
	keys   []key
	assign []int
	loads  []float64
	counts []int
	flat   []int
	groups [][]int
	// Rebalance scratch.
	asc       []int
	ascOff    []int
	heads     []int
	surplus   []int
	balFlat   []int
	balGroups [][]int
}

// Partition splits item indices 0..len(sizes)-1 across m groups with
// exactly IntraReorder's rule: stable descending sort by size, then
// greedy least-loaded placement (lowest group index wins ties).
func (p *Partitioner) Partition(sizes []float64, m int) ([][]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("reorder: DP size %d must be positive", m)
	}
	n := len(sizes)
	p.keys = grow(p.keys, n)
	p.assign = grow(p.assign, n)
	p.loads = grow(p.loads, m)
	p.counts = grow(p.counts, m)
	p.groups = grow(p.groups, m)
	// Sort descending by size (line 3): the complemented rank reverses
	// the order, and equal sizes keep corpus order.
	for i, sz := range sizes {
		p.keys[i] = key{rank: ^sizeRank(sz), index: i}
	}
	slices.SortFunc(p.keys, key.compare)
	clear(p.loads)
	clear(p.counts)
	for pos, k := range p.keys {
		i := k.index
		min := 0
		for g := 1; g < m; g++ {
			if p.loads[g] < p.loads[min] {
				min = g
			}
		}
		p.assign[pos] = min
		p.loads[min] += sizes[i]
		p.counts[min]++
	}
	// Lay the groups out contiguously in one reused backing slice; the
	// second pass appends in sorted order, matching the append-based
	// construction's within-group order.
	p.flat = grow(p.flat, n)
	off := 0
	for g := 0; g < m; g++ {
		p.groups[g] = p.flat[off : off : off+p.counts[g]]
		off += p.counts[g]
	}
	for pos, k := range p.keys {
		g := p.assign[pos]
		p.groups[g] = append(p.groups[g], k.index)
	}
	return p.groups[:m], nil
}

// Rebalance trims each group to perRank entries and redistributes the
// surplus to underfull groups (smallest size first), preserving the
// index multiset. It produces exactly the order a stable ascending
// sort of the trimmed tails would — without sorting: Partition builds
// every group in non-increasing size order, so each tail's ascending
// order falls out of a backwards walk (runs of equal sizes kept in
// forward order), and the global order out of a k-way merge that
// breaks ties toward the lower group. The returned groups alias the
// partitioner's scratch, valid until its next call.
func (p *Partitioner) Rebalance(groups [][]int, perRank int, sizes []float64) [][]int {
	m := len(groups)
	total := 0
	n := 0
	for _, g := range groups {
		n += len(g)
		if len(g) > perRank {
			total += len(g) - perRank
		}
	}
	// Ascending per-group tails, concatenated; ascOff[d] marks group
	// d's region.
	p.ascOff = grow(p.ascOff, m+1)
	p.asc = grow(p.asc, total)
	pos := 0
	for d, g := range groups {
		p.ascOff[d] = pos
		if len(g) <= perRank {
			continue
		}
		tail := g[perRank:]
		i := len(tail) - 1
		for i >= 0 {
			j := i
			for j > 0 && sizes[tail[j-1]] == sizes[tail[i]] {
				j--
			}
			for t := j; t <= i; t++ {
				p.asc[pos] = tail[t]
				pos++
			}
			i = j - 1
		}
	}
	p.ascOff[m] = pos
	// K-way merge: smallest size first, ties to the lower group — the
	// stable-sort emission order.
	p.surplus = grow(p.surplus, total)
	p.heads = grow(p.heads, m)
	for d := 0; d < m; d++ {
		p.heads[d] = p.ascOff[d]
	}
	for t := 0; t < total; t++ {
		best := -1
		for d := 0; d < m; d++ {
			if p.heads[d] >= p.ascOff[d+1] {
				continue
			}
			if best == -1 || sizes[p.asc[p.heads[d]]] < sizes[p.asc[p.heads[best]]] {
				best = d
			}
		}
		p.surplus[t] = p.asc[p.heads[best]]
		p.heads[best]++
	}
	// Rebuild balanced groups in a second flat backing: kept prefixes,
	// then surplus refills in group order.
	p.balFlat = grow(p.balFlat, n)
	p.balGroups = grow(p.balGroups, m)
	si := 0
	off := 0
	for d, g := range groups {
		kept := g
		if len(kept) > perRank {
			kept = kept[:perRank]
		}
		start := off
		off += copy(p.balFlat[off:], kept)
		for off-start < perRank && si < total {
			p.balFlat[off] = p.surplus[si]
			si++
			off++
		}
		p.balGroups[d] = p.balFlat[start:off:off]
	}
	return p.balGroups[:m]
}

// grow resizes a scratch slice to length n, reusing capacity.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// key is an item priced once for sorting: rank, its size mapped onto
// the integers in cmp.Compare's order, and index, its unique identity,
// which breaks ties — so any sort of the keys yields the stable sort on
// size. Keys hold no pointers: sorting them moves no slice headers and
// pays no write barriers.
type key struct {
	rank  uint64
	index int
}

// compare orders keys by (rank, index).
func (a key) compare(b key) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.index, b.index))
}

// mbKey is Algorithm 2's key: a microbatch's (size, Index) key plus its
// input position and encoder forward time.
type mbKey struct {
	key
	pos int
	enc float64
}

// sizeRank maps a size onto the integers in cmp.Compare's order: NaN
// below everything, -0 equal to +0.
func sizeRank(f float64) uint64 {
	switch b := math.Float64bits(f); {
	case f != f:
		return 0
	case f == 0:
		return 1 << 63
	case b>>63 == 1:
		return ^b
	default:
		return b | 1<<63
	}
}

// Microbatch carries one microbatch's per-pipeline-stage compute times
// for inter-microbatch reordering. Fwd[0] is the modality encoder
// stage; Fwd[len-1] the modality generator stage. Index is an opaque
// identity preserved through reordering.
type Microbatch struct {
	Index int
	Fwd   []float64
	Bwd   []float64
}

// HeteroSize returns the microbatch's data-heterogeneous compute time:
// encoder plus generator stage forward time (§5.3: "the size refers to
// the computation time of the microbatch in modality encoder and
// generator").
func (m Microbatch) HeteroSize() float64 {
	if len(m.Fwd) == 0 {
		return 0
	}
	return m.Fwd[0] + m.Fwd[len(m.Fwd)-1]
}

// Reorderer runs Algorithm 2 with all scratch (the priced keys, the
// order, interval predictions, pick marks) reused across calls: a
// long-lived one stops allocating once it has seen its largest rank.
// Not safe for concurrent use; the zero value is ready. The returned
// order aliases the scratch, valid until the next call — which must not
// be handed that order as its input.
//
// Indices are expected to increase along the input: an Index not above
// every earlier one is checked for duplicates by a scan of the earlier
// keys, so a rank of l such microbatches pays O(l²) for the check.
type Reorderer struct {
	keys, picked []mbKey
	order        []int // input positions, in Algorithm 2's order
	ret, scaled  []Microbatch
	intervals    []pipeline.Interval // intervals[i-1] = interval_i
	used         []bool
	backing      []float64 // the vpp > 1 virtual-chunk stage times
	pred         pipeline.IntervalPredictor
}

// place appends mbs[pos] to the order and predicts the interval it
// closes.
func (r *Reorderer) place(mbs []Microbatch, pos int) {
	r.order = append(r.order, pos)
	r.intervals = append(r.intervals, r.pred.Append(mbs[pos].Fwd, mbs[pos].Bwd))
}

// InterReorder is Algorithm 2: reorder the microbatches of one DP rank
// for the 1F1B schedule with p pipeline stages (p = len(Fwd) of every
// microbatch).
//
//  1. schedule the smallest microbatch first to activate all stages
//     promptly;
//  2. reserve the p-1 smallest remaining microbatches for the rear,
//     shrinking the unfilled tail intervals of Figure 12;
//  3. iterate: predict the next interval volume with the GETINTERVAL
//     dynamic program and place the microbatch(es) whose encoder
//     forward time best fits it — p-1 of them for the first (warmup)
//     interval, one for each subsequent interval.
func (r *Reorderer) InterReorder(mbs []Microbatch, p2p []float64) ([]Microbatch, error) {
	return r.reorder(mbs, mbs, p2p)
}

// reorder runs Algorithm 2 over priced and returns the microbatches of
// out (the same microbatches, perhaps at other stage times) in that
// order.
func (r *Reorderer) reorder(priced, out []Microbatch, p2p []float64) ([]Microbatch, error) {
	l := len(priced)
	if l == 0 {
		return nil, nil
	}
	p := len(priced[0].Fwd)
	if p == 0 {
		return nil, fmt.Errorf("reorder: microbatches carry no stage times")
	}
	// Price every microbatch once. An Index above every earlier one is
	// new; any other is looked for among the earlier keys, a scan that
	// increasing indices never take.
	r.keys = grow(r.keys, l)
	top := math.MinInt
	for i, m := range priced {
		if len(m.Fwd) != p || len(m.Bwd) != p {
			return nil, fmt.Errorf("reorder: microbatch %d has inconsistent stage count", m.Index)
		}
		if m.Index <= top && slices.ContainsFunc(r.keys[:i], func(k mbKey) bool { return k.index == m.Index }) {
			return nil, fmt.Errorf("reorder: duplicate microbatch index %d", m.Index)
		}
		top = max(top, m.Index)
		r.keys[i] = mbKey{key{sizeRank(m.HeteroSize()), m.Index}, i, m.Fwd[0]}
	}
	if l <= 2 || p == 1 {
		r.ret = append(r.ret[:0], out...)
		return r.ret, nil
	}

	pool := r.keys
	slices.SortFunc(pool, func(a, b mbKey) int { return a.compare(b.key) })
	r.order, r.intervals, r.picked = grow(r.order, l)[:0], grow(r.intervals, l)[:0], grow(r.picked, p)
	r.pred.Reset(p, p2p)

	// Line 3: smallest first.
	r.place(priced, pool[0].pos)
	pool = pool[1:]

	// Line 4: reserve the p-1 smallest for the rear.
	rear := pool[:min(p-1, len(pool))]
	pool = pool[len(rear):]

	// Lines 5-11: fill intervals. used marks in-place what selectClosest
	// picked, so no per-interval pool copies are taken; left counts the
	// unpicked remainder.
	r.used = grow(r.used, len(pool))
	clear(r.used)
	left := len(pool)
	for i := 1; left > 0 && i <= l-p; i++ {
		iv := r.intervals[i-1]
		want := 1
		if i == 1 {
			want = p - 1
		}
		r.picked = selectClosest(pool, r.used, want, iv.Volume(), r.picked[:0])
		for _, k := range r.picked {
			r.place(priced, k.pos)
		}
		left -= len(r.picked)
	}
	// Defensive drain: the paper's loop bound can leave items when l is
	// small relative to p; keep them before the rear reserve.
	for i, k := range pool {
		if !r.used[i] {
			r.place(priced, k.pos)
		}
	}
	// Line 12: rear microbatches close the pipeline.
	for _, k := range rear {
		r.order = append(r.order, k.pos)
	}
	if len(r.order) != l {
		return nil, fmt.Errorf("reorder: produced %d microbatches from %d", len(r.order), l)
	}
	r.ret = grow(r.ret, l)
	for i, pos := range r.order {
		r.ret[i] = out[pos]
	}
	return r.ret, nil
}

// InterReorderVPP retrofits Algorithm 2 to interleaved 1F1B (§5.3): a
// physical stage hosts vpp virtual stages, so each microbatch's stage
// work arrives in vpp finer slices that fill vpp sub-intervals. The
// fundamental insights carry over unchanged; we model the finer
// granularity by splitting every stage time into vpp equal virtual
// chunks before reordering.
func (r *Reorderer) InterReorderVPP(mbs []Microbatch, p2p []float64, vpp int) ([]Microbatch, error) {
	if vpp <= 1 {
		return r.InterReorder(mbs, p2p)
	}
	// One flat backing for every scaled stage-time slice.
	total := 0
	for _, m := range mbs {
		total += len(m.Fwd) + len(m.Bwd)
	}
	backing, scaled := grow(r.backing, total)[:0], grow(r.scaled, len(mbs))[:0]
	for _, m := range mbs {
		s := Microbatch{Index: m.Index}
		for _, v := range m.Fwd {
			backing = append(backing, v/float64(vpp))
		}
		s.Fwd = backing[len(backing)-len(m.Fwd):]
		for _, v := range m.Bwd {
			backing = append(backing, v/float64(vpp))
		}
		s.Bwd = backing[len(backing)-len(m.Bwd):]
		scaled = append(scaled, s)
	}
	r.backing, r.scaled = backing, scaled
	// Order the virtual-chunk microbatches; hand back the originals.
	return r.reorder(scaled, mbs, p2p)
}

// InterReorder runs Algorithm 2 on a fresh Reorderer: the order is the
// caller's. As there, non-increasing indices make the duplicate check
// quadratic.
func InterReorder(mbs []Microbatch, p2p []float64) ([]Microbatch, error) {
	return new(Reorderer).InterReorder(mbs, p2p)
}

// selectClosest greedily picks up to k microbatches whose cumulative
// encoder forward time approaches target: each step takes the candidate
// minimising the distance to the target, stopping early when adding
// any candidate would move further from it. Picked entries are marked
// in used (and skipped when already marked), so callers never copy the
// pool; picks are appended to the passed slice and returned.
func selectClosest(pool []mbKey, used []bool, k int, target float64, picked []mbKey) []mbKey {
	avail := 0
	for i := range pool {
		if !used[i] {
			avail++
		}
	}
	if k > avail {
		k = avail
	}
	sum := 0.0
	for len(picked) < k {
		bestIdx := -1
		bestDist := math.Abs(sum - target)
		for i, c := range pool {
			if used[i] {
				continue
			}
			d := math.Abs(sum + c.enc - target)
			if bestIdx == -1 || d < bestDist {
				bestIdx, bestDist = i, d
			}
		}
		if bestIdx == -1 {
			break
		}
		// Always place at least one microbatch per interval slot; after
		// that stop if no candidate improves the fit.
		if len(picked) > 0 && bestDist >= math.Abs(sum-target) {
			break
		}
		c := pool[bestIdx]
		picked = append(picked, c)
		sum += c.enc
		used[bestIdx] = true
	}
	return picked
}
