package data

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// draw makes call j of a fixed rotation over the methods the corpus and
// the straggler generator use, on both generators, as comparable bits.
func draw(a, b *rand.Rand, j int) (uint64, uint64) {
	switch j % 4 {
	case 0:
		return a.Uint64(), b.Uint64()
	case 1:
		return uint64(a.Int63()), uint64(b.Int63())
	case 2:
		return math.Float64bits(a.Float64()), math.Float64bits(b.Float64())
	}
	return math.Float64bits(a.NormFloat64()), math.Float64bits(b.NormFloat64())
}

// sameStream fails t at the first call where NewRand(seed) and
// rand.New(rand.NewSource(seed)) disagree.
func sameStream(t *testing.T, seed int64, calls int) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for j := 0; j < calls; j++ {
		if g, w := draw(got, want, j); g != w {
			t.Fatalf("seed %d: call %d (method %d) = %#x, math/rand %#x", seed, j, j%4, g, w)
		}
	}
}

// TestSeededRandMatchesMathRand holds the closed-form source to
// math/rand over 1,500 calls a seed, past the rngTap draws the closed
// form serves and into the fallback. The seeds cover x₀'s edge cases:
// 0 and the multiples of 2³¹−1 (both remapped to 89482311), negatives,
// the int64 extremes, ±2⁶² and the LAION seed, plus scrambled seeds
// like the corpus draws.
func TestSeededRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, int32max, -int32max, 2 * int32max, -3 * int32max, int32max << 32,
		int32max - 1, int32max + 1, 89482311, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64,
		LAION400M().Seed, -LAION400M().Seed,
	}
	c := testCorpus(t)
	for i := int64(0); len(seeds) < 320; i++ {
		seeds = append(seeds, c.sampleSeed(i), c.sampleSeed(i)%int32max*int32max, -i*7919)
	}
	for _, seed := range seeds {
		sameStream(t, seed, 1500)
	}
}

// FuzzSeededRand is the same oracle on arbitrary seeds and stream
// lengths.
func FuzzSeededRand(f *testing.F) {
	f.Add(int64(0), uint16(300))
	f.Add(int64(int32max), uint16(1))
	f.Add(int64(-1<<62), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, seed, int(draws%4096))
	})
}

// TestLAIONStaysOnFastPath: the speed of NewRand rests on every sample
// taking at most rngTap draws, so none pays for the fallback's seeding.
// It holds over the golden range at the golden seeds.
func TestLAIONStaysOnFastPath(t *testing.T) {
	for _, seed := range []int64{LAION400M().Seed, 1, 2} {
		spec := LAION400M()
		spec.Seed = seed
		c, err := NewCorpus(spec)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for i := int64(0); i < goldenSamples; i++ {
			src := new(seededSource)
			src.Seed(c.sampleSeed(i))
			c.generate(i, rand.New(src))
			if src.n > rngTap {
				t.Errorf("seed %d sample %d took %d draws, past the %d the closed form serves", seed, i, src.n, rngTap)
			}
			most = max(most, src.n)
		}
		t.Logf("seed %d: at most %d draws a sample", seed, most)
	}
}

// TestColdSampleAllocBudget pins what a cold Sample (an index the corpus
// has not seen) allocates: the sample's subsequences and its generator.
// The memo is filled past two rotations first, so it has stopped
// growing. Seeding rand.NewSource allocated a 607-word register per
// sample, 9,053 B a sample in all; the closed-form source brought that
// to 3,680 B, and growing the subsequences in pooled scratch, so the
// sample keeps one exact-size copy instead of every append doubling,
// to 1,397 B. Under the race detector sync.Pool drops a quarter of its
// Puts, so the scratch regrows now and then: 2,751-2,785 B were
// measured there, held to the 4 KB the doubling appends were.
func TestColdSampleAllocBudget(t *testing.T) {
	budget := uint64(2048)
	if raceEnabled {
		budget = 4096
	}
	c := testCorpus(t)
	for i := int64(0); i <= 2*memoGeneration; i++ {
		c.Sample(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < memoGeneration; i++ {
		c.Sample(2*memoGeneration + 1 + i)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / memoGeneration; got >= budget {
		t.Errorf("a cold sample allocates %d B, budget %d", got, budget)
	} else {
		t.Logf("a cold sample allocates %d B", got)
	}
}
