package stepccl

// The Figure 21 executor: one TP boundary GEMM run for real, strawman
// and overlapped, which the tests hold bit-identical after the remap.

import (
	"errors"
	"fmt"
	"testing"
)

// Matrix is a dense row-major float32 matrix of len(Data)/Cols rows.
type Matrix struct {
	Cols int
	Data []float32
}

// newMatrix allocates a zero matrix.
func newMatrix(rows, cols int) *Matrix {
	return &Matrix{Cols: cols, Data: make([]float32, rows*cols)}
}

// FillDeterministic populates the matrix from a seed, so executor runs
// are reproducible.
func (m *Matrix) FillDeterministic(seed uint64) {
	z := seed
	for i := range m.Data {
		z = z*6364136223846793005 + 1442695040888963407
		m.Data[i] = float32(int32(z>>33)) / (1 << 30)
	}
}

// matMul computes dst = a x b for the row range [rowLo, rowHi) of a.
func matMul(dst, a, b *Matrix, rowLo, rowHi int) {
	k := a.Cols
	n := b.Cols
	for i := rowLo; i < rowHi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		di := dst.Data[i*n : (i+1)*n]
		for x := range di {
			di[x] = 0
		}
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				di[j] += av * bv
			}
		}
	}
}

// Executor performs one TP boundary GEMM — output = gathered(A) x W —
// where A is row-sharded across Ranks peers and gathered in Pieces
// chunks per rank. It exists to demonstrate (and test) the overlap
// schedule and the layout remap with real concurrency.
type Executor struct {
	// Ranks is the TP group size; RowsPerShard rows live on each rank.
	Ranks, Pieces int
	RowsPerShard  int
	K, N          int

	shards []*Matrix // per-rank input shards
	w      *Matrix   // the local weight shard
}

// NewExecutor builds a deterministic problem instance.
func NewExecutor(ranks, pieces, rowsPerShard, k, n int) (*Executor, error) {
	if ranks < 1 || pieces < 1 || rowsPerShard < 1 || k < 1 || n < 1 {
		return nil, errors.New("stepccl: all dimensions must be positive")
	}
	if rowsPerShard%pieces != 0 {
		return nil, fmt.Errorf("stepccl: rows per shard %d not divisible by %d pieces", rowsPerShard, pieces)
	}
	e := &Executor{Ranks: ranks, Pieces: pieces, RowsPerShard: rowsPerShard, K: k, N: n}
	for r := 0; r < ranks; r++ {
		s := newMatrix(rowsPerShard, k)
		s.FillDeterministic(uint64(r) + 1)
		e.shards = append(e.shards, s)
	}
	e.w = newMatrix(k, n)
	e.w.FillDeterministic(0xabcdef)
	return e, nil
}

// totalRows is the gathered row count.
func (e *Executor) totalRows() int { return e.Ranks * e.RowsPerShard }

// RunStrawman gathers the full input rank-major (rank 0's rows, then
// rank 1's, ...) and only then multiplies — the baseline of Figure 20a.
func (e *Executor) RunStrawman() *Matrix {
	a := newMatrix(e.totalRows(), e.K)
	for r, s := range e.shards {
		copy(a.Data[r*e.RowsPerShard*e.K:], s.Data)
	}
	out := newMatrix(e.totalRows(), e.N)
	matMul(out, a, e.w, 0, e.totalRows())
	return out
}

// RunOverlapped streams the input piece-major: chunk p carries piece p
// of every rank (the all-gather schedule of Figure 21b). A transfer
// goroutine plays the DMA engine, copying chunks into the gather
// buffer; the compute goroutine multiplies each chunk the moment it
// lands. The piece-major output is then remapped to rank-major and
// must equal the strawman result exactly.
func (e *Executor) RunOverlapped() *Matrix {
	pieceRows := e.RowsPerShard / e.Pieces
	chunkRows := pieceRows * e.Ranks
	a := newMatrix(e.totalRows(), e.K)
	raw := newMatrix(e.totalRows(), e.N)

	ready := make(chan int, e.Pieces)
	// DMA engine: copy chunk p (piece p of every rank) into rows
	// [p*chunkRows, (p+1)*chunkRows) of the gather buffer.
	go func() {
		for p := 0; p < e.Pieces; p++ {
			base := p * chunkRows
			for r := 0; r < e.Ranks; r++ {
				src := e.shards[r].Data[p*pieceRows*e.K : (p+1)*pieceRows*e.K]
				dst := a.Data[(base+r*pieceRows)*e.K:]
				copy(dst, src)
			}
			ready <- p
		}
		close(ready)
	}()
	// Compute stream: GEMM per chunk as it arrives.
	for p := range ready {
		matMul(raw, a, e.w, p*chunkRows, (p+1)*chunkRows)
	}
	return e.remap(raw)
}

// remap converts piece-major row order back to rank-major (Figure 21).
func (e *Executor) remap(raw *Matrix) *Matrix {
	pieceRows := e.RowsPerShard / e.Pieces
	out := newMatrix(e.totalRows(), e.N)
	for p := 0; p < e.Pieces; p++ {
		for r := 0; r < e.Ranks; r++ {
			srcRow := (p*e.Ranks + r) * pieceRows
			dstRow := r*e.RowsPerShard + p*pieceRows
			copy(out.Data[dstRow*e.N:(dstRow+pieceRows)*e.N],
				raw.Data[srcRow*e.N:(srcRow+pieceRows)*e.N])
		}
	}
	return out
}

// BenchmarkStepCCLExecutor compares the strawman and overlapped
// executors on a realistic shard shape: the one mechanism ablation
// nothing else measures.
func BenchmarkStepCCLExecutor(b *testing.B) {
	e, err := NewExecutor(8, 8, 64, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("strawman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RunStrawman()
		}
	})
	b.Run("overlapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RunOverlapped()
		}
	})
}
