package fingerprint

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
)

// TestEncodedFieldSetsPinned is the guard that keeps fingerprints
// honest: every struct this package encodes has its exact field set
// pinned here. Adding (or renaming) a field on one of these types fails
// this test until the corresponding encoder hashes it — a silently
// unhashed field would make two different specs collide in the durable
// plan cache.
func TestEncodedFieldSetsPinned(t *testing.T) {
	for _, tc := range []struct {
		typ    any
		fields []string
	}{
		{cluster.Cluster{}, []string{"Nodes", "GPUsPerNode", "GPU", "NVLinkBps", "InterNodeBps", "RailOptimized", "LinkLatency"}},
		{cluster.GPUSpec{}, []string{"Name", "PeakFLOPS", "MemoryBytes", "MemoryBWBytes"}},
		{model.MLLM{}, []string{"Name", "Encoder", "InProj", "Backbone", "OutProj", "Generator", "VAE", "GenResolution", "SeqLen"}},
		{model.TransformerConfig{}, []string{"Name", "Layers", "HiddenSize", "FFNHiddenSize", "Heads", "KVGroups", "VocabSize", "GatedFFN"}},
		{model.ProjectorConfig{}, []string{"InDim", "Hidden", "OutDim"}},
		{model.DiffusionConfig{}, []string{"Name", "LatentScale", "LatentChannels", "StageChannels", "DownBlocks", "UpBlocks", "AttentionFromStage", "ContextDim"}},
		{model.VAEConfig{}, []string{"Name", "StageChannels", "BlocksPerStage", "InChannels"}},
		{model.FreezeSpec{}, []string{"Name", "Frozen"}},
		{model.SampleShape{}, []string{"ImageTokens", "GenImages"}},
	} {
		rt := reflect.TypeOf(tc.typ)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			got = append(got, rt.Field(i).Name)
		}
		want := append([]string(nil), tc.fields...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fields changed:\ngot  %v\nwant %v\nupdate the %s encoder (and its fingerprint domain version) before updating this list",
				rt.Name(), got, want, rt.Name())
		}
	}
}

// TestHashDiscriminates checks the encoding is injective across the
// easy confusions: adjacent strings, empty-vs-zero, field order.
func TestHashDiscriminates(t *testing.T) {
	sum := func(f func(h *Hash)) string {
		h := New("test/v1")
		f(h)
		return h.Sum()
	}
	a := sum(func(h *Hash) { h.Str("ab"); h.Str("c") })
	b := sum(func(h *Hash) { h.Str("a"); h.Str("bc") })
	if a == b {
		t.Error("string boundary not encoded: ab|c == a|bc")
	}
	if sum(func(h *Hash) { h.Ints(nil) }) == sum(func(h *Hash) { h.Ints([]int{0}) }) {
		t.Error("empty slice collides with [0]")
	}
	if sum(func(h *Hash) { h.F64(0) }) == sum(func(h *Hash) { h.Int(0) }) {
		// Both hash 8 zero bytes; the collision is real but harmless
		// inside one struct encoder (field positions are fixed). This
		// assertion documents the caveat rather than forbidding it.
		t.Log("F64(0) and Int(0) share an encoding; encoders rely on fixed field order")
	}
	if New("a").Sum() == New("b").Sum() {
		t.Error("domain tag not encoded")
	}

	c1 := cluster.Production(4)
	c2 := cluster.Production(5)
	if sum(func(h *Hash) { Cluster(h, c1) }) == sum(func(h *Hash) { Cluster(h, c2) }) {
		t.Error("clusters of different sizes collide")
	}
	if sum(func(h *Hash) { Model(h, model.MLLM9B()) }) == sum(func(h *Hash) { Model(h, model.MLLM15B()) }) {
		t.Error("different models collide")
	}
	m := model.MLLM9B()
	m.SeqLen++
	if sum(func(h *Hash) { Model(h, model.MLLM9B()) }) == sum(func(h *Hash) { Model(h, m) }) {
		t.Error("SeqLen not part of the model hash")
	}
}

// TestHashStable pins that the hash is a pure function of the encoded
// content — same input, same digest, across separate Hash instances.
func TestHashStable(t *testing.T) {
	mk := func() string {
		h := New("stability/v1")
		Cluster(h, cluster.Production(8))
		Model(h, model.MLLM9B())
		Freeze(h, model.FullTraining)
		Shape(h, model.SampleShape{ImageTokens: []int{1024, 512}, GenImages: 1})
		return h.Sum()
	}
	if mk() != mk() {
		t.Error("identical content hashed to different digests")
	}
	if len(mk()) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(mk()))
	}
}

// TestHashStrAllocFree pins Str's staging buffer: hashing a string —
// shorter than, equal to and longer than one 64-byte chunk — allocates
// nothing, and chunking leaves the digest what one whole Write gives.
func TestHashStrAllocFree(t *testing.T) {
	long := strings.Repeat("disttrain/", 20) // 200 bytes: three full chunks and a tail
	h := New("test/v1")
	if got := testing.AllocsPerRun(100, func() {
		h.Str("9b")
		h.Str(long[:64])
		h.Str(long)
	}); got != 0 {
		t.Errorf("Hash.Str allocated %v times per three strings, want 0", got)
	}
	chunked := New("test/v1")
	chunked.Str(long)
	whole := New("test/v1")
	whole.Int(len(long))
	whole.h.Write([]byte(long))
	if chunked.Sum() != whole.Sum() {
		t.Error("chunked Str digest differs from a single Write of the same bytes")
	}
}
