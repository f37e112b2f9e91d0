package preprocess

import (
	"bytes"
	"runtime/debug"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/model"
)

// faninShapeCorpus is the corpus shape the repo benchmark's
// preprocess-fanin workload and BenchmarkServiceThroughput preprocess:
// LAION shrunk to 48-pixel-median images in 512-token sequences.
func faninShapeCorpus(tb testing.TB, seed int64) *data.Corpus {
	tb.Helper()
	sp := data.LAION400M()
	sp.Seed = seed
	sp.SeqLen = 512
	sp.MaxResolution = 64
	sp.ResMedian = 48
	c, err := data.NewCorpus(sp)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func sameProcessed(a, b Processed) bool {
	return a.SampleIndex == b.SampleIndex && a.ImageTokens == b.ImageTokens &&
		a.TextTokens == b.TextTokens && a.GenImages == b.GenImages &&
		bytes.Equal(a.TokenPayload, b.TokenPayload) && (a.TokenPayload == nil) == (b.TokenPayload == nil)
}

// TestProcessSampleMatchesReference holds the kernel to the staged
// pipeline it replaced, byte for byte, on the fanin corpus shape and
// on full-resolution LAION (images up to 1024 pixels, 2048 decoded).
func TestProcessSampleMatchesReference(t *testing.T) {
	full, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	faninN, fullN := 500, 8
	if testing.Short() { // the race gate: the staged reference is ~15x slower there
		faninN, fullN = 60, 1
	}
	for _, tc := range []struct {
		name string
		src  Source
		n    int
	}{
		{"fanin", faninShapeCorpus(t, 1), faninN},
		{"laion", full, fullN},
	} {
		for i := 0; i < tc.n; i++ {
			s := tc.src.Sample(int64(i))
			got, gerr := ProcessSample(s)
			want, werr := referenceProcessSample(s)
			if (gerr == nil) != (werr == nil) || !sameProcessed(got, want) {
				t.Fatalf("%s sample %d: kernel (%v) and reference (%v) disagree", tc.name, i, gerr, werr)
			}
		}
	}
}

// TestProcessSampleAllocBudget pins the kernel's point: a sample costs
// the payload its caller retains (75 allocations and 900 KB before the
// pixel temporaries outlived the call). The collector is off while it
// is measured, so no GC empties the scratch pool mid-run and the
// budget is the recorded 1: one allocation more per sample fails.
// Under the race detector sync.Pool drops Puts at random, so there is
// nothing to pin.
func TestProcessSampleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	c := faninShapeCorpus(t, 1)
	i := int64(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(200, func() {
		if _, err := ProcessSample(c.Sample(i % 32)); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > 1 {
		t.Errorf("one sample allocated %v times, recorded 1, budget 1", got)
	}
}

// FuzzPixelKernel holds the kernel to the staged helpers it replaced
// on arbitrary (seed, resolution) pairs — through a fresh scratch and
// through one last used at another resolution — and its decoder to
// theirs on a stream with one run length rewritten or its tail cut:
// both reject it with the same text or both decode the same bytes, and
// no store leaves the scratch.
func FuzzPixelKernel(f *testing.F) {
	f.Add(uint64(42), uint8(1), uint8(7), uint16(0), uint8(255), uint8(0)) // over-long run
	f.Add(uint64(7), uint8(3), uint8(0), uint16(9), uint8(0), uint8(0))    // short: a run zeroed
	f.Add(uint64(1), uint8(0), uint8(2), uint16(3), uint8(3), uint8(5))    // tail cut
	f.Add(uint64(5), uint8(2), uint8(2), uint16(1), uint8(40), uint8(2))   // a foreign 40-pixel run
	f.Fuzz(func(t *testing.T, seed uint64, tiles, prevTiles uint8, at uint16, run, cut uint8) {
		res := (int(tiles)%8 + 1) * model.PatchSize
		srcRes, pixels := 2*res, 4*res*res
		comp := compressImage(seed, srcRes)
		rgb, err := decodeImage(comp, srcRes)
		if err != nil {
			t.Fatal(err)
		}
		half, err := resizeRGB(rgb, srcRes, res)
		if err != nil {
			t.Fatal(err)
		}
		want := packPatches(half, res)

		var fresh, used pixelScratch
		if _, err := used.appendImage(nil, seed+1, (int(prevTiles)%8+1)*model.PatchSize); err != nil {
			t.Fatal(err)
		}
		for name, sc := range map[string]*pixelScratch{"fresh": &fresh, "reused": &used} {
			got, err := sc.appendImage([]byte{0xee}, seed, res)
			if err != nil || !bytes.Equal(got[1:], want) || got[0] != 0xee {
				t.Fatalf("res %d, %s scratch: kernel tokens differ from the staged pipeline (err %v)", res, name, err)
			}
			if !bytes.Equal(sc.comp, comp) {
				t.Fatalf("res %d, %s scratch: compressed stream differs", res, name)
			}
		}

		// Corrupt the stream: rewrite one run length, drop trailing bytes.
		bad := append([]byte(nil), comp...)
		bad[4*(int(at)%(len(bad)/4))] = run
		bad = bad[:len(bad)-int(cut)%len(bad)]
		wantRGB, wantErr := decodeImage(bad, srcRes)
		// The decoder sees a scratch of exactly the documented length;
		// the bytes behind it must come back untouched.
		buf := bytes.Repeat([]byte{0xa5}, pixels*3+decodeSlack+64)
		gotErr := decodeInto(buf[:pixels*3+decodeSlack], bad, pixels)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("corrupt stream: kernel says %v, staged decoder says %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(buf[:pixels*3], wantRGB) {
			t.Fatal("corrupt stream of the right length decoded to different pixels")
		}
		for _, b := range buf[pixels*3+decodeSlack:] {
			if b != 0xa5 {
				t.Fatal("decoder stored past its scratch")
			}
		}
	})
}

var sinkProcessed Processed

// BenchmarkProcessSample is the producer's per-sample kernel on the
// fanin corpus shape (~11 images of 32-64 pixels per sample).
func BenchmarkProcessSample(b *testing.B) {
	c := faninShapeCorpus(b, 1)
	samples := make([]data.Sample, 64)
	for i := range samples {
		samples[i] = c.Sample(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ProcessSample(samples[i%len(samples)])
		if err != nil {
			b.Fatal(err)
		}
		sinkProcessed = p
	}
}
