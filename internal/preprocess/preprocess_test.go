package preprocess

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"disttrain/internal/data"
	"disttrain/internal/model"
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
	good := Config{Source: src, GlobalBatch: 8, DPSize: 2, Microbatch: 1, PipelineStages: 3}
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
	bad = good
	bad.Reorder = true
	bad.PipelineStages = 1
	if err := bad.Validate(); err == nil {
		t.Error("reorder without stages accepted")
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
	cfg := Config{Source: corpus, GlobalBatch: 16, DPSize: 2, Microbatch: 1,
		Reorder: true, PipelineStages: 4, Workers: 8}
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
	// Load balance: modality tokens per rank are closer than the
	// block assignment would give.
	load := func(rb *RankBatch) (t float64) {
		for _, mb := range rb.Microbatches {
			for _, p := range mb {
				t += float64(p.ImageTokens)
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

// Figure 17's mechanism end to end over real TCP: the producer works
// ahead of a prefetching consumer, so the batch Next hands over was
// built before the consumer asked for it, while the co-located
// baseline builds the same batch inline. Samples from iteration 2 on
// are held back, so the producer's work settles with iterations 0 and
// 1 built and the readahead of 2 and 3 waiting at the gate.
func TestDisaggregationBeatsColocated(t *testing.T) {
	src := fixedSource{images: 4, resolution: 128, seqLen: 2048}
	cfg := Config{Source: src, GlobalBatch: 4, DPSize: 1, Microbatch: 1, Workers: 8, Readahead: 2}
	held := cfg
	gate := make(chan struct{})
	held.Source = gatedSource{src, 2 * 4, math.MaxInt64, gate}
	srv, addr := startServer(t, held)

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	pf := NewPrefetcher(client, 1, 2)
	defer pf.Close()
	// Opened before pf.Close, whose prefetcher waits on a held build.
	defer close(gate)
	if _, err := pf.Next(ctx); err != nil { // warm the pipeline
		t.Fatal(err)
	}
	// The fourth build is iteration 3, which only the readahead of a
	// fetch of iteration 1 starts — after iteration 1 was built.
	for deadline := time.Now().Add(10 * time.Second); srv.builds.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("producer built %d iterations, want 4", srv.builds.Load())
		}
	}
	before := srv.builds.Load()
	rb, err := pf.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.builds.Load(); got != before || rb.Iter != 1 {
		t.Fatalf("Next returned iteration %d and built %d iterations, want iteration 1 built ahead", rb.Iter, got-before)
	}

	col, err := NewColocated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := col.Fetch(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Microbatches) != len(want.Microbatches) {
		t.Fatalf("disaggregated batch has %d microbatches, co-located %d", len(rb.Microbatches), len(want.Microbatches))
	}
	for j, mb := range want.Microbatches {
		for k := range mb {
			if !sameProcessed(rb.Microbatches[j][k], mb[k]) {
				t.Fatalf("microbatch %d sample %d differs from the co-located fetch", j, k)
			}
		}
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
