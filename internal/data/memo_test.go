package data

import (
	"reflect"
	"sync"
	"testing"
)

// hit reports whether two reads of one index came from one
// materialisation: memo hits share the Subsequences backing array.
func hit(a, b Sample) bool { return &a.Subsequences[0] == &b.Subsequences[0] }

// TestMemoBoundedUnderStreaming: a reader that never repeats an index
// (a preprocessing producer) keeps only the last two generations
// however far it streams, where the memo used to grow until 65,536
// entries. The window's weight bound itself is FuzzWindow's; here the
// last two generations read are still served and every older one is
// gone.
func TestMemoBoundedUnderStreaming(t *testing.T) {
	c := testCorpus(t)
	const gens = 10
	probes := make([]Sample, gens) // the first sample of each generation
	for i := int64(0); i < gens*memoGeneration; i++ {
		if s := c.Sample(i); i%memoGeneration == 0 {
			probes[i/memoGeneration] = s
		}
	}
	for g := gens - 1; g >= 0; g-- { // hits first: a miss re-inserts
		if kept := hit(c.Sample(int64(g*memoGeneration)), probes[g]); kept != (g >= gens-2) {
			t.Errorf("generation %d of %d kept = %v after the stream", g, gens, kept)
		}
	}
}

// TestMemoRotationKeepsRecentSamples: the read that fills a generation
// and the one just before it are still hits after the rotation, and a
// regenerated sample equals the one that was dropped.
func TestMemoRotationKeepsRecentSamples(t *testing.T) {
	c := testCorpus(t)
	first := c.Sample(0)
	var beforeLast, last Sample
	for i := int64(1); i < memoGeneration; i++ {
		beforeLast, last = last, c.Sample(i)
	}
	c.Sample(memoGeneration) // rotates: the full generation becomes prev
	if !hit(c.Sample(memoGeneration-1), last) || !hit(c.Sample(memoGeneration-2), beforeLast) || !hit(c.Sample(0), first) {
		t.Error("samples read just before the rotation were regenerated after it")
	}
	for i := int64(memoGeneration + 1); i <= 2*memoGeneration; i++ {
		c.Sample(i) // second rotation drops the generation holding 0
	}
	again := c.Sample(0)
	if hit(again, first) {
		t.Error("sample 0 survived two rotations: the memo is not dropping generations")
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("a regenerated sample differs from the dropped one")
	}
}

// TestMemoConcurrentReaders drives rotations from several goroutines
// at once, overlapping ranges included; the race gate pins safety and
// every read must equal an unshared corpus's.
func TestMemoConcurrentReaders(t *testing.T) {
	c, ref := testCorpus(t), testCorpus(t)
	const readers, span = 4, 3 * memoGeneration / 2
	want := make([]Sample, span+readers*64)
	for i := range want {
		want[i] = ref.Sample(int64(i))
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r * 64; i < r*64+span; i++ {
				if got := c.Sample(int64(i)); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("reader %d: sample %d differs under concurrent rotation", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
