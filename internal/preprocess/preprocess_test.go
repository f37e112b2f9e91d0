package preprocess

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/reorder"
)

// fixedSource produces samples with a fixed image count and resolution
// (the Figure 17 workload shape).
type fixedSource struct {
	images, resolution, seqLen int
}

func (f fixedSource) Sample(index int64) data.Sample {
	s := data.Sample{Index: index, SeqLen: f.seqLen}
	tokens := 0
	for i := 0; i < f.images; i++ {
		tk := model.ImageTokens(f.resolution)
		s.Subsequences = append(s.Subsequences,
			data.Subsequence{Modality: data.Text, Tokens: 16},
			data.Subsequence{Modality: data.Image, Tokens: tk, Resolution: f.resolution})
		tokens += 16 + tk
	}
	if tokens < f.seqLen {
		s.Subsequences = append(s.Subsequences, data.Subsequence{Modality: data.Text, Tokens: f.seqLen - tokens})
	}
	s.GenImages = 1
	return s
}

func TestCompressDecodeRoundTrip(t *testing.T) {
	var reused []byte
	for _, res := range []int{32, 64, 128} {
		comp := appendCompressed(nil, 42, res*res)
		rgb := make([]byte, res*res*3+decodeSlack)
		if err := decodeInto(rgb, comp, res*res); err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		// Deterministic, into a reused buffer as into a fresh one.
		reused = appendCompressed(reused[:0], 42, res*res)
		if !bytes.Equal(comp, reused) {
			t.Fatal("compression not deterministic")
		}
		// Compression actually compresses.
		if len(comp) >= res*res*3 {
			t.Fatalf("res %d: %d compressed >= %d raw", res, len(comp), res*res*3)
		}
	}
	if err := decodeInto(make([]byte, 64*64*3+decodeSlack), []byte{255, 0, 0, 0}, 64*64); err == nil {
		t.Error("corrupt stream decoded")
	}
	// Runs longer than the codec's own 15 pixels, and empty ones, decode
	// like any other.
	foreign := []byte{100, 1, 2, 3, 0, 9, 9, 9, 16, 4, 5, 6, 17, 7, 8, 9, 96, 10, 11, 12, 1, 13, 14, 15, 26, 16, 17, 18}
	want, err := decodeImage(foreign, 16)
	if err != nil {
		t.Fatal(err)
	}
	rgb := make([]byte, 16*16*3+decodeSlack)
	if err := decodeInto(rgb, foreign, 16*16); err != nil || !bytes.Equal(rgb[:16*16*3], want) {
		t.Errorf("long-run stream: err %v, pixels equal %v", err, bytes.Equal(rgb[:16*16*3], want))
	}
}

func TestResize(t *testing.T) {
	src := make([]byte, 64*64*3)
	for i := range src {
		src[i] = byte(i)
	}
	// The kernel's 2x box filter is the general resize at factor 2.
	half, err := resizeRGB(src, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(half) != 32*32*3 {
		t.Fatalf("resized to %d bytes", len(half))
	}
	if got, want := appendPatchTokens(nil, src, 32), packPatches(half, 32); !bytes.Equal(got, want) {
		t.Errorf("halved patch tokens = %v, want %v", got, want)
	}
	// A size the filter cannot produce is rejected.
	var sc pixelScratch
	if _, err := sc.appendImage(nil, 1, 0); err == nil {
		t.Error("resize to 0 accepted")
	}
	// A constant image stays constant through the box filter.
	flat := bytes.Repeat([]byte{100}, 64*64*3)
	for _, b := range appendPatchTokens(nil, flat, 32) {
		if b != 100 {
			t.Fatal("box filter distorted a constant image")
		}
	}
}

func TestPackPatches(t *testing.T) {
	res := 64
	rgb := bytes.Repeat([]byte{7}, 4*res*res*3)
	out := appendPatchTokens(nil, rgb, res)
	side := res / model.PatchSize
	if len(out) != side*side*3 {
		t.Fatalf("packed %d bytes, want %d", len(out), side*side*3)
	}
	for _, b := range out {
		if b != 7 {
			t.Fatal("patch mean of constant image should be constant")
		}
	}
}

func TestProcessSample(t *testing.T) {
	src := fixedSource{images: 2, resolution: 64, seqLen: 512}
	p, err := ProcessSample(src.Sample(5))
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleIndex != 5 {
		t.Errorf("index = %d", p.SampleIndex)
	}
	wantImg := int32(2 * model.ImageTokens(64))
	if p.ImageTokens != wantImg {
		t.Errorf("image tokens = %d, want %d", p.ImageTokens, wantImg)
	}
	if p.TextTokens+p.ImageTokens != 512 {
		t.Errorf("total tokens = %d, want 512", p.TextTokens+p.ImageTokens)
	}
	if len(p.TokenPayload) == 0 {
		t.Error("no payload")
	}
}

func TestConfigValidate(t *testing.T) {
	src := fixedSource{images: 1, resolution: 32, seqLen: 128}
	good := Config{Source: src, GlobalBatch: 8, DPSize: 2, Microbatch: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Source = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil source accepted")
	}
	bad = good
	bad.GlobalBatch = 7 // not divisible by DP*M
	if err := bad.Validate(); err == nil {
		t.Error("indivisible batch accepted")
	}
}

// startServer runs a producer on a random loopback port.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	return srv, ln.Addr().String()
}

func TestServerClientRoundTrip(t *testing.T) {
	src := fixedSource{images: 2, resolution: 64, seqLen: 512}
	cfg := Config{Source: src, GlobalBatch: 8, DPSize: 2, Microbatch: 1, Workers: 4, Readahead: 1}
	_, addr := startServer(t, cfg)

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	rb, err := client.FetchTenant(ctx, 0, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Iter != 0 || rb.Rank != 1 {
		t.Errorf("batch identity = (%d,%d)", rb.Iter, rb.Rank)
	}
	if len(rb.Microbatches) != 4 { // 8 samples / 2 ranks / M=1
		t.Fatalf("microbatches = %d, want 4", len(rb.Microbatches))
	}
	// The network payload must equal a locally computed one.
	want, err := ProcessSample(src.Sample(4)) // rank 1's first sample (block order)
	if err != nil {
		t.Fatal(err)
	}
	got := rb.Microbatches[0][0]
	if got.SampleIndex != want.SampleIndex || !bytes.Equal(got.TokenPayload, want.TokenPayload) {
		t.Error("payload corrupted in transit")
	}
	// Out-of-range rank errors without killing the connection.
	if _, err := client.FetchTenant(ctx, 0, 2, 0, 99); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := client.FetchTenant(ctx, 0, 2, 1, 0); err != nil {
		t.Errorf("connection unusable after server-side error: %v", err)
	}
}

func TestServerReordersWhenAsked(t *testing.T) {
	// A miniature corpus (small images, short sequences) keeps the real
	// pixel pipeline fast while preserving the skewed distributions.
	spec := data.LAION400M()
	spec.SeqLen = 1024
	spec.MaxResolution = 128
	spec.ResMedian = 80
	corpus, err := data.NewCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A cost superlinear in image tokens, like attention's.
	cost := func(s data.Sample) float64 {
		n := float64(s.TotalImageTokens())
		return n*n + 64*float64(s.GenImages)
	}
	cfg := Config{Source: corpus, GlobalBatch: 16, DPSize: 2, Microbatch: 1,
		Cost: cost, Workers: 8}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, err := srv.FetchTenant(0, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.FetchTenant(0, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every sample appears exactly once across the two ranks, and the
	// cardinality rebalance leaves each rank exactly its K microbatches.
	seen := map[int64]bool{}
	for _, rb := range []*RankBatch{a, b} {
		if len(rb.Microbatches) != 8 {
			t.Fatalf("rank holds %d microbatches, want 8", len(rb.Microbatches))
		}
		for _, mb := range rb.Microbatches {
			for _, p := range mb {
				if seen[p.SampleIndex] {
					t.Fatalf("sample %d duplicated", p.SampleIndex)
				}
				seen[p.SampleIndex] = true
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("saw %d samples, want 16", len(seen))
	}
	// Each rank holds Algorithm 1's group over the configured cost, in
	// group order: the trainer's own assignment of the batch.
	costs := make([]float64, 16)
	for i := range costs {
		costs[i] = cost(corpus.Sample(int64(i)))
	}
	var part reorder.Partitioner
	groups, err := part.Assign(costs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for d, rb := range []*RankBatch{a, b} {
		for j, mb := range rb.Microbatches {
			if got := mb[0].SampleIndex; got != int64(groups[d][j]) {
				t.Errorf("rank %d microbatch %d holds sample %d, Algorithm 1 puts %d there", d, j, got, groups[d][j])
			}
		}
	}
	// Load balance: the configured cost per rank is within 25%.
	load := func(rb *RankBatch) (t float64) {
		for _, mb := range rb.Microbatches {
			for _, p := range mb {
				t += cost(corpus.Sample(p.SampleIndex))
			}
		}
		return
	}
	la, lb := load(a), load(b)
	imbalance := (la - lb) / (la + lb)
	if imbalance < 0 {
		imbalance = -imbalance
	}
	if imbalance > 0.25 {
		t.Errorf("reordered ranks imbalanced by %.0f%%", imbalance*100)
	}
}

// readCounter counts the samples a producer reads per iteration: a
// build reads each sample of its batch once.
type readCounter struct {
	Source
	batch int64
	reads [8]atomic.Int32
}

func (r *readCounter) Sample(index int64) data.Sample {
	if it := index / r.batch; it < int64(len(r.reads)) {
		r.reads[it].Add(1)
	}
	return r.Source.Sample(index)
}

// Figure 17's mechanism end to end over real TCP: the producer works
// ahead of the consumer, so the batch a Client fetches next was built
// before it asked (the fetch reads no sample again), while the
// co-located baseline runs ProcessSample inline over the same samples
// and gets the same bytes.
func TestDisaggregationBeatsColocated(t *testing.T) {
	src := fixedSource{images: 4, resolution: 128, seqLen: 2048}
	counted := &readCounter{Source: src, batch: 4}
	cfg := Config{Source: counted, GlobalBatch: 4, DPSize: 1, Microbatch: 1, Workers: 8, Readahead: 2}
	_, addr := startServer(t, cfg)

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	if _, err := client.FetchTenant(ctx, 0, 1, 0, 0); err != nil { // warm the pipeline
		t.Fatal(err)
	}
	// Iteration 1 is the warm-up fetch's readahead.
	for deadline := time.Now().Add(10 * time.Second); counted.reads[1].Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("producer read %d of iteration 1's 4 samples ahead", counted.reads[1].Load())
		}
	}
	rb, err := client.FetchTenant(ctx, 0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.reads[1].Load(); got != 4 || rb.Iter != 1 {
		t.Fatalf("fetch returned iteration %d and the producer read iteration 1's samples %d times, want iteration 1 built ahead once", rb.Iter, got)
	}

	if len(rb.Microbatches) != cfg.GlobalBatch {
		t.Fatalf("disaggregated batch has %d microbatches, want %d", len(rb.Microbatches), cfg.GlobalBatch)
	}
	for j, mb := range rb.Microbatches {
		want, err := ProcessSample(src.Sample(int64(cfg.GlobalBatch + j)))
		if err != nil {
			t.Fatal(err)
		}
		if len(mb) != 1 || !sameProcessed(mb[0], want) {
			t.Fatalf("microbatch %d differs from the co-located ProcessSample", j)
		}
	}
}

// TestFanOutEvaluatesEveryIndexOnce holds at every pool size, including
// the inline path (workers <= 1) and a pool wider than the work.
func TestFanOutEvaluatesEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{-1, 0, 1, 2, 4, n + 3} {
		hits := make([]atomic.Int32, n)
		fanOut(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers %d: index %d evaluated %d times", workers, i, got)
			}
		}
	}
}

// TestFanOutInlineKeepsIndexOrder pins the serial reference path: one
// worker runs on the calling goroutine, in index order.
func TestFanOutInlineKeepsIndexOrder(t *testing.T) {
	var order []int
	fanOut(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("inline run evaluated %d of 5 indices", len(order))
	}
}

func TestConcurrentConsumers(t *testing.T) {
	src := fixedSource{images: 1, resolution: 64, seqLen: 256}
	cfg := Config{Source: src, GlobalBatch: 8, DPSize: 4, Microbatch: 1, Workers: 8}
	_, addr := startServer(t, cfg)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for iter := int64(0); iter < 3; iter++ {
				rb, err := client.FetchTenant(context.Background(), 0, 4, iter, rank)
				if err != nil {
					errs <- err
					return
				}
				if len(rb.Microbatches) != 2 {
					errs <- err
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Property: wire encoding round-trips arbitrary batches.
func TestWireRoundTrip(t *testing.T) {
	f := func(iters uint8, payload []byte, img, txt uint16) bool {
		rb := &RankBatch{Iter: int64(iters), Rank: 3}
		rb.Microbatches = [][]Processed{{
			{SampleIndex: 77, ImageTokens: int32(img), TextTokens: int32(txt),
				GenImages: 1, TokenPayload: payload},
		}}
		var buf bytes.Buffer
		bw := newTestWriter(&buf)
		if err := writeBatch(bw, rb); err != nil {
			return false
		}
		bw.Flush()
		body := buf.Bytes()[4:] // strip frame length
		got, err := parseBatch(body)
		if err != nil {
			return false
		}
		p := got.Microbatches[0][0]
		return got.Iter == rb.Iter && got.Rank == 3 &&
			p.SampleIndex == 77 && bytes.Equal(p.TokenPayload, payload) &&
			p.ImageTokens == int32(img) && p.TextTokens == int32(txt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func newTestWriter(buf *bytes.Buffer) *bufio.Writer { return bufio.NewWriter(buf) }
