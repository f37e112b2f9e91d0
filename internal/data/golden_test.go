package data

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the corpus golden")

// goldenSamples is the index range the corpus golden covers at each
// seed: two memo generations, so the digest also reads regenerated
// samples.
const goldenSamples = 2 * memoGeneration

// corpusDigest hashes the golden range of the corpus at seed: per
// sample its subsequence count, each subsequence's modality, tokens and
// resolution, then GenImages, as little-endian int64s.
func corpusDigest(t *testing.T, seed int64) string {
	t.Helper()
	spec := LAION400M()
	spec.Seed = seed
	c, err := NewCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for i := int64(0); i < goldenSamples; i++ {
		s := c.Sample(i)
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s.Subsequences)))
		for _, ss := range s.Subsequences {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ss.Modality))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ss.Tokens))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ss.Resolution))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.GenImages))
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCorpusGolden pins the corpus stream: samples 0-4095 at the LAION
// seed and at seeds 1 and 2, recorded while every sample still seeded
// its generator through rand.NewSource. A change to the generator, the
// per-sample seed scramble or the packing shows up here as a diff.
func TestCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{LAION400M().Seed, 1, 2} {
		fmt.Fprintf(&b, "seed=%d samples=%d sha256=%s\n", seed, goldenSamples, corpusDigest(t, seed))
	}
	got := b.String()

	const path = "testdata/corpus_v1.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("corpus stream changed:\n got %s\nwant %s", got, want)
	}
}
