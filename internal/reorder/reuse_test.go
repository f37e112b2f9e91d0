package reorder

import (
	"math"
	"testing"
)

// byteSrc deals a fuzz input out as small integers, wrapping around.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) next(mod int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[s.i%len(s.b)])
	s.i++
	return v % mod
}

// fuzzRank derives one Algorithm 2 input: 0-40 microbatches of 1-8
// stages on a quarter grid (forward times now and then NaN or -0, where
// a size order could slip), indices increasing or, now and then,
// shuffled, p2p nil or set, vpp 1-3, and now and then an input that
// must be rejected — a duplicate index, a ragged microbatch, no stage
// times at all.
func fuzzRank(src *byteSrc) (mbs []Microbatch, p2p []float64, vpp int) {
	l, p := src.next(41), 1+src.next(8)
	vpp = 1 + src.next(3)
	mbs = make([]Microbatch, l)
	for i := range mbs {
		mbs[i] = Microbatch{Index: 3*i - 7, Fwd: make([]float64, p), Bwd: make([]float64, p)}
		for s := 0; s < p; s++ {
			switch v := src.next(15); v {
			case 13:
				mbs[i].Fwd[s] = math.NaN()
			case 14:
				mbs[i].Fwd[s] = math.Copysign(0, -1)
			default:
				mbs[i].Fwd[s] = float64(v) * 0.25
			}
			mbs[i].Bwd[s] = float64(src.next(25)) * 0.25
		}
	}
	if l > 1 && src.next(4) == 0 {
		for i := range mbs {
			j := src.next(l)
			mbs[i].Index, mbs[j].Index = mbs[j].Index, mbs[i].Index
		}
	}
	if src.next(2) == 1 {
		p2p = make([]float64, p-1)
		for i := range p2p {
			p2p[i] = float64(src.next(5)) * 0.125
		}
	}
	if l > 1 {
		switch at := 1 + src.next(l-1); src.next(9) {
		case 0:
			mbs[at].Index = mbs[src.next(at)].Index
		case 1:
			mbs[at].Bwd = mbs[at].Bwd[:p-1]
		case 2:
			mbs[0].Fwd, mbs[0].Bwd = nil, nil
		}
	}
	return mbs, p2p, vpp
}

// FuzzReordererReuse drives one long-lived Reorderer through a
// byte-derived sequence of ranks that grow and shrink, valid and
// invalid, at mixed vpp, and holds every call to the struct-sorting
// reference (referenceInterReorderVPP) on the same input: same error
// text, or the same order index for index carrying the caller's own
// stage-time slices. The quarter grid makes size ties common, so the
// tie order is exercised on most inputs.
func FuzzReordererReuse(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{40, 7, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{9, 3, 0, 12, 24, 0, 1, 1, 0, 3, 200, 5, 100, 17, 6, 2, 1, 8, 0, 4})
	f.Add([]byte("pack my box with five dozen liquor jugs, then reorder them"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{b: data}
		var r Reorderer
		for step := 0; step < 12; step++ {
			mbs, p2p, vpp := fuzzRank(src)
			want, wantErr := referenceInterReorderVPP(mbs, p2p, vpp)
			got, gotErr := r.InterReorderVPP(mbs, p2p, vpp)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("step %d: error %v, reference %v", step, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: %d microbatches, reference %d", step, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || &got[i].Fwd[0] != &want[i].Fwd[0] || &got[i].Bwd[0] != &want[i].Bwd[0] {
					t.Fatalf("step %d: position %d holds microbatch %d, reference %d (or a copy of its stage times)",
						step, i, got[i].Index, want[i].Index)
				}
			}
		}
	})
}

// TestReordererAllocFree pins the point of the Reorderer: after one
// warm-up call at its largest rank, Algorithm 2 allocates nothing — at
// that size or a smaller one, at vpp 1 or above.
func TestReordererAllocFree(t *testing.T) {
	src := &byteSrc{b: []byte("sphinx of black quartz, judge my vow")}
	rank := func(l, p int) []Microbatch {
		mbs := make([]Microbatch, l)
		for i := range mbs {
			mbs[i] = Microbatch{Index: i, Fwd: make([]float64, p), Bwd: make([]float64, p)}
			for s := 0; s < p; s++ {
				mbs[i].Fwd[s], mbs[i].Bwd[s] = float64(1+src.next(9)), float64(2+src.next(17))
			}
		}
		return mbs
	}
	big, small := rank(24, 6), rank(7, 3)
	p2p := []float64{0.1, 0.1, 0.1, 0.1, 0.1}
	var r Reorderer
	if _, err := r.InterReorderVPP(big, p2p, 2); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		for _, c := range []struct {
			mbs []Microbatch
			p2p []float64
			vpp int
		}{{big, p2p, 1}, {small, nil, 3}, {big, p2p, 2}, {small, p2p[:2], 1}} {
			if _, err := r.InterReorderVPP(c.mbs, c.p2p, c.vpp); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("a warm Reorderer allocated %v times per 4 reorderings, want 0", got)
	}
}
