// Package fingerprint builds canonical content hashes for the durable
// control plane. A fingerprint must survive a process restart and a
// re-serialization round trip, so it is computed by explicit
// field-by-field encoding — never by formatting a struct (%+v changes
// with field order and type layout) and never by pointer identity.
//
// The encoding is binary and unambiguous: strings are length-prefixed,
// integers are fixed-width, floats hash their exact IEEE-754 bits.
// Every struct encoder lists its fields explicitly; the package's
// reflection guard tests pin each struct's field set, so adding a field
// to a hashed type fails the build until the encoder (and therefore the
// fingerprint version) is updated.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
)

// Hash accumulates canonically encoded fields into a SHA-256 digest.
type Hash struct {
	h   hash.Hash
	buf [8]byte
	str [64]byte // Str's staging chunk: one SHA-256 block
}

// New returns an empty Hash seeded with the given domain tag, so hashes
// of different kinds of objects can never collide even when their field
// encodings coincide.
func New(domain string) *Hash {
	h := &Hash{h: sha256.New()}
	h.Str(domain)
	return h
}

// Str hashes a length-prefixed string, staged through a fixed chunk so
// no per-call []byte copy of s is allocated.
func (h *Hash) Str(s string) {
	h.Int(len(s))
	for len(s) > 0 {
		n := copy(h.str[:], s)
		h.h.Write(h.str[:n])
		s = s[n:]
	}
}

// Int hashes an integer as fixed 8 bytes.
func (h *Hash) Int(v int) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(int64(v)))
	h.h.Write(h.buf[:])
}

// F64 hashes a float's exact IEEE-754 bit pattern.
func (h *Hash) F64(v float64) {
	binary.LittleEndian.PutUint64(h.buf[:], math.Float64bits(v))
	h.h.Write(h.buf[:])
}

// Bool hashes a boolean.
func (h *Hash) Bool(b bool) {
	v := 0
	if b {
		v = 1
	}
	h.Int(v)
}

// Ints hashes a length-prefixed int slice.
func (h *Hash) Ints(v []int) {
	h.Int(len(v))
	for _, x := range v {
		h.Int(x)
	}
}

// Sum returns the hex digest. The 64-character lowercase-hex form is
// filename-safe, so it doubles as the on-disk store key.
func (h *Hash) Sum() string {
	return hex.EncodeToString(h.h.Sum(nil))
}

// Cluster encodes every cluster.Cluster field.
func Cluster(h *Hash, c cluster.Cluster) {
	h.Int(c.Nodes)
	h.Int(c.GPUsPerNode)
	gpu(h, c.GPU)
	h.F64(c.NVLinkBps)
	h.F64(c.InterNodeBps)
	h.Bool(c.RailOptimized)
	h.F64(c.LinkLatency)
}

// gpu encodes every cluster.GPUSpec field.
func gpu(h *Hash, g cluster.GPUSpec) {
	h.Str(g.Name)
	h.F64(g.PeakFLOPS)
	h.F64(g.MemoryBytes)
	h.F64(g.MemoryBWBytes)
}

// Model encodes every model.MLLM field.
func Model(h *Hash, m model.MLLM) {
	h.Str(m.Name)
	transformer(h, m.Encoder)
	projector(h, m.InProj)
	transformer(h, m.Backbone)
	projector(h, m.OutProj)
	diffusion(h, m.Generator)
	vae(h, m.VAE)
	h.Int(m.GenResolution)
	h.Int(m.SeqLen)
}

// Freeze encodes every model.FreezeSpec field.
func Freeze(h *Hash, f model.FreezeSpec) {
	h.Str(f.Name)
	h.Bool(f.Encoder)
	h.Bool(f.Backbone)
	h.Bool(f.Generator)
}

// Shape encodes every model.SampleShape field.
func Shape(h *Hash, s model.SampleShape) {
	h.Ints(s.ImageTokens)
	h.Int(s.GenImages)
}

func transformer(h *Hash, t model.TransformerConfig) {
	h.Str(t.Name)
	h.Int(t.Layers)
	h.Int(t.HiddenSize)
	h.Int(t.FFNHiddenSize)
	h.Int(t.Heads)
	h.Int(t.KVGroups)
	h.Int(t.VocabSize)
	h.Bool(t.GatedFFN)
}

func projector(h *Hash, p model.ProjectorConfig) {
	h.Int(p.InDim)
	h.Int(p.Hidden)
	h.Int(p.OutDim)
}

func diffusion(h *Hash, d model.DiffusionConfig) {
	h.Str(d.Name)
	h.Int(d.LatentScale)
	h.Int(d.LatentChannels)
	h.Ints(d.StageChannels)
	h.Int(d.DownBlocks)
	h.Int(d.UpBlocks)
	h.Int(d.AttentionFromStage)
	h.Int(d.ContextDim)
}

func vae(h *Hash, v model.VAEConfig) {
	h.Str(v.Name)
	h.Ints(v.StageChannels)
	h.Int(v.BlocksPerStage)
	h.Int(v.InChannels)
}
