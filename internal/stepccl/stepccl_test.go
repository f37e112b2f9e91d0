package stepccl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStrawman(t *testing.T) {
	if got := Strawman(3, 2); got != 5 {
		t.Errorf("Strawman = %g", got)
	}
}

func TestOverlappedLimits(t *testing.T) {
	// One chunk degenerates to the strawman.
	if got := Overlapped(3, 2, 0, 1, 0); got != 5 {
		t.Errorf("1 chunk = %g, want 5", got)
	}
	// Compute-bound with many chunks: total -> comm_chunk + gemm.
	got := Overlapped(8, 2, 0, 8, 0)
	want := 2.0/8 + 8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("compute-bound = %g, want %g", got, want)
	}
	// Comm-bound: total -> comm + gemm_chunk.
	got = Overlapped(2, 8, 0, 8, 0)
	want = 8 + 2.0/8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("comm-bound = %g, want %g", got, want)
	}
}

func TestRemapAccounting(t *testing.T) {
	base := Overlapped(8, 2, 1, 8, 0)
	hidden := Overlapped(8, 2, 1, 8, 1)
	if base-hidden != 1 {
		t.Errorf("fully hidden remap should save its full cost: %g vs %g", base, hidden)
	}
	half := Overlapped(8, 2, 1, 8, 0.5)
	if math.Abs(base-half-0.5) > 1e-12 {
		t.Errorf("half-hidden remap off: %g", half)
	}
}

func TestHiddenFraction(t *testing.T) {
	// Compute-dominant workloads at production chunk counts hide nearly
	// everything — the regime that justifies the profiler's 0.85.
	h := HiddenFraction(10, 1.5, 8)
	if h < 0.8 || h > 1 {
		t.Errorf("hidden fraction = %.3f, want >0.8", h)
	}
	if got := HiddenFraction(1, 0, 4); got != 1 {
		t.Errorf("no comm should be fully hidden: %g", got)
	}
	// Comm-dominant: the overlap can hide at most ~gemm worth.
	h = HiddenFraction(1, 10, 8)
	if h > 0.2 {
		t.Errorf("comm-bound hidden fraction = %.3f, want small", h)
	}
}

// Properties: overlap never loses to the strawman and improves (weakly)
// with chunk count.
func TestOverlapProperties(t *testing.T) {
	f := func(gRaw, cRaw uint16, chunksRaw uint8) bool {
		g := float64(gRaw)/100 + 0.01
		c := float64(cRaw)/100 + 0.01
		n := int(chunksRaw%16) + 1
		ov := Overlapped(g, c, 0, n, 0)
		if ov > Strawman(g, c)+1e-9 {
			return false
		}
		// Lower bound: can't beat max(gemm, comm) + one chunk of the other.
		if ov < math.Max(g, c)-1e-9 {
			return false
		}
		if n > 1 {
			if ov > Overlapped(g, c, 0, n-1, 0)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(0, 1, 4, 4, 4); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewExecutor(2, 3, 4, 4, 4); err == nil {
		t.Error("indivisible pieces accepted")
	}
}

// The overlapped executor must produce bit-identical results to the
// strawman after the layout remap — the correctness claim of Figure 21.
func TestExecutorCorrectness(t *testing.T) {
	for _, tc := range []struct{ ranks, pieces, rows, k, n int }{
		{2, 2, 4, 8, 6},
		{4, 4, 8, 16, 12},
		{8, 2, 4, 32, 8},
		{1, 1, 2, 4, 4},
	} {
		e, err := NewExecutor(tc.ranks, tc.pieces, tc.rows, tc.k, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		straw := e.RunStrawman()
		over := e.RunOverlapped()
		if len(straw.Data) != len(over.Data) {
			t.Fatalf("shape mismatch")
		}
		for i := range straw.Data {
			if straw.Data[i] != over.Data[i] {
				t.Fatalf("ranks=%d pieces=%d: outputs differ at %d: %g vs %g",
					tc.ranks, tc.pieces, i, straw.Data[i], over.Data[i])
			}
		}
	}
}

// Without the remap, piece-major output differs from rank-major — the
// remap is load-bearing, not decorative.
func TestRemapIsNecessary(t *testing.T) {
	e, err := NewExecutor(2, 2, 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	straw := e.RunStrawman()

	// Re-run the overlapped path but skip the remap.
	pieceRows := e.RowsPerShard / e.Pieces
	chunkRows := pieceRows * e.Ranks
	a := newMatrix(e.totalRows(), e.K)
	raw := newMatrix(e.totalRows(), e.N)
	for p := 0; p < e.Pieces; p++ {
		base := p * chunkRows
		for r := 0; r < e.Ranks; r++ {
			src := e.shards[r].Data[p*pieceRows*e.K : (p+1)*pieceRows*e.K]
			copy(a.Data[(base+r*pieceRows)*e.K:], src)
		}
		matMul(raw, a, e.w, p*chunkRows, (p+1)*chunkRows)
	}
	same := true
	for i := range straw.Data {
		if straw.Data[i] != raw.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("piece-major output accidentally equals rank-major; test instance too symmetric")
	}
}

func TestMatMulRowRange(t *testing.T) {
	a := newMatrix(4, 3)
	b := newMatrix(3, 2)
	a.FillDeterministic(1)
	b.FillDeterministic(2)
	full := newMatrix(4, 2)
	matMul(full, a, b, 0, 4)
	half := newMatrix(4, 2)
	matMul(half, a, b, 0, 2)
	matMul(half, a, b, 2, 4)
	for i := range full.Data {
		if full.Data[i] != half.Data[i] {
			t.Fatal("row-range matmul diverges from full matmul")
		}
	}
}
