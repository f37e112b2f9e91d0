// Package preprocess implements DistTrain's disaggregated data
// preprocessing (§5.1): a producer-consumer split where dedicated CPU
// nodes fetch raw multimodal samples, decompress and resize images,
// pack modality tokens, apply both reordering levels, and stream
// ready-to-train microbatches to the GPU nodes over RPC. The producer
// here is a real TCP service doing real pixel work on synthetic image
// payloads; the consumer is a Service whose tenants fetch rank
// batches through private caches, failing over across producers, each
// producer reached through one Client; Figure 17's co-located baseline
// runs the same work (ProcessSample) inline.
package preprocess

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/model"
)

// Source supplies samples by index; *data.Corpus satisfies it.
type Source interface {
	Sample(index int64) data.Sample
}

// Processed is one training-ready sample.
type Processed struct {
	SampleIndex int64
	// TokenPayload carries the packed modality tokens (3 bytes per
	// image token, 2 bytes per text token id).
	TokenPayload []byte
	// ImageTokens and TextTokens describe the packed composition.
	ImageTokens int32
	TextTokens  int32
	GenImages   int32
}

// pixelScratch holds one image's temporaries — its stored form and its
// decoded pixels — and outlives the call: a sample's images reuse one,
// and scratchPool hands it to the next sample, so steady-state pixel
// work allocates nothing.
type pixelScratch struct {
	comp []byte // the RLE stream
	rgb  []byte // srcRes*srcRes*3 decoded bytes plus decodeSlack
}

var scratchPool = sync.Pool{New: func() any { return new(pixelScratch) }}

// ProcessSample runs the full preprocessing pipeline for one sample:
// per image, decode the compressed payload, resize to the patch grid
// and pack patch tokens; text subsequences tokenize trivially. This is
// the CPU work that stalls training when co-located (§2.3). The
// returned payload is the call's one allocation.
func ProcessSample(s data.Sample) (Processed, error) {
	out := Processed{SampleIndex: s.Index, GenImages: int32(s.GenImages)}
	size := 0
	for _, ss := range s.Subsequences {
		switch ss.Modality {
		case data.Image:
			size += 3 * model.ImageTokens(ss.Resolution)
		case data.Text:
			size += 2 * ss.Tokens
		}
	}
	if size > 0 {
		out.TokenPayload = make([]byte, 0, size)
	}
	sc := scratchPool.Get().(*pixelScratch)
	defer scratchPool.Put(sc)
	for _, ss := range s.Subsequences {
		switch ss.Modality {
		case data.Image:
			var err error
			out.TokenPayload, err = sc.appendImage(out.TokenPayload, uint64(s.Index)*1000003+uint64(ss.Resolution), ss.Resolution)
			if err != nil {
				return Processed{}, err
			}
			out.ImageTokens += int32(ss.Tokens)
		case data.Text:
			// Tokenised text: 2 bytes per token id.
			for i := 0; i < ss.Tokens; i++ {
				out.TokenPayload = binary.LittleEndian.AppendUint16(out.TokenPayload, uint16((s.Index+int64(i))%32000))
			}
			out.TextTokens += int32(ss.Tokens)
		}
	}
	if out.ImageTokens+out.TextTokens == 0 {
		return Processed{}, errors.New("preprocess: empty sample")
	}
	return out, nil
}

// appendImage runs one image through the pixel pipeline and appends
// its patch tokens to dst. The stored image is larger than the training
// resolution (cameras don't shoot patch grids): synthesise and decode
// at 2x, then resize down — the production decode-then-resize path.
func (sc *pixelScratch) appendImage(dst []byte, seed uint64, resolution int) ([]byte, error) {
	if resolution <= 0 {
		return nil, fmt.Errorf("preprocess: cannot resize %d -> %d", 2*resolution, resolution)
	}
	pixels := 4 * resolution * resolution
	sc.comp = appendCompressed(sc.comp[:0], seed, pixels)
	if need := pixels*3 + decodeSlack; cap(sc.rgb) < need {
		sc.rgb = make([]byte, need)
	}
	if err := decodeInto(sc.rgb, sc.comp, pixels); err != nil {
		return nil, err
	}
	return appendPatchTokens(dst, sc.rgb, resolution), nil
}

// appendCompressed synthesises the stored (compressed) form of one
// image of the given pixel count: a run-length encoded byte stream
// generated deterministically from the seed. Decoding it costs a pass
// over every output pixel, like a real image codec.
func appendCompressed(dst []byte, seed uint64, pixels int) []byte {
	z := seed | 1
	for remaining := pixels; remaining > 0; {
		z = z*6364136223846793005 + 1442695040888963407
		run := int(z>>59%15) + 1 // 1..15 pixel runs
		if run > remaining {
			run = remaining
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(z>>8)&^0xff|uint32(run)) // run, z>>16, z>>24, z>>32
		remaining -= run
	}
	return dst
}

// decodeSlack is how far past a nonempty run's first byte decodeInto's
// 8-byte stores always land: two 8-pixel groups, enough for the 15-pixel
// runs the codec emits without a data-dependent branch. What overshoots
// the run lands in the next run, which overwrites it, or in this slack
// after the final one.
const decodeSlack = 48

// decodeInto expands an RLE payload into the first pixels*3 bytes of
// dst, which must be decodeSlack longer, as six word stores into one
// bounds-checked window per 16 pixels of a run. A stream that decodes
// to any other length is rejected; no store lands outside dst.
func decodeInto(dst, comp []byte, pixels int) error {
	want := pixels * 3
	dst = dst[:want+decodeSlack]
	o := 0
	for ; len(comp) >= 4; comp = comp[4:] {
		run := binary.LittleEndian.Uint32(comp) // count, r, g, b
		end := o + int(run&0xff)*3
		if end > want {
			// Over-long: count what the stream claims, store none of it.
			for ; len(comp) >= 4; comp = comp[4:] {
				o += int(comp[0]) * 3
			}
			break
		}
		// The pixel as a 24-bit word, then the three words an RGB
		// pattern takes to realign: bytes rgbrgbrg brgbrgbr gbrgbrgb.
		p := uint64(run >> 8)
		w0 := p * (1 | 1<<24 | 1<<48)
		w1, w2 := p>>16|w0<<8, p>>8|w0<<16
		for ; o < end; o += decodeSlack {
			w := (*[decodeSlack]byte)(dst[o:])
			binary.LittleEndian.PutUint64(w[:], w0)
			binary.LittleEndian.PutUint64(w[8:], w1)
			binary.LittleEndian.PutUint64(w[16:], w2)
			binary.LittleEndian.PutUint64(w[24:], w0)
			binary.LittleEndian.PutUint64(w[32:], w1)
			binary.LittleEndian.PutUint64(w[40:], w2)
		}
		o = end
	}
	if o != want {
		return fmt.Errorf("preprocess: decoded %d bytes, want %d", o, want)
	}
	return nil
}

// appendPatchTokens halves a decoded 2*resolution square image with a
// 2x2 box filter and appends one 3-byte mean per 16x16 patch of the
// result (the input layout the modality encoder's patch embedding
// consumes). Each mean truncates twice, once per filter, exactly as a
// resize followed by a pack would.
func appendPatchTokens(dst, rgb []byte, resolution int) []byte {
	const p = model.PatchSize
	side, stride := resolution/p, resolution*6 // patches a side, bytes per source row
	for py := 0; py < side; py++ {
		for px := 0; px < side; px++ {
			s := patchSum(rgb[py*p*2*stride+px*p*6:], stride)
			dst = append(dst, byte(s&0xffff/(p*p)), byte(s>>32/(p*p)), byte(s>>16&0xffff/(p*p)))
		}
	}
	return dst
}

// patchSum sums the truncated 2x2 means of the patch whose top source
// row starts rgb in 16-bit lanes r, b, g (a call of its own keeps the
// loop's words in registers). A word's low six bytes hold a row's pixel
// pair; every second word is read 4 bytes on, never past the patch.
func patchSum(rgb []byte, stride int) (s uint64) {
	const patch, m = model.PatchSize * 6, 0x00ff_00ff_00ff     // bytes of a source row under a patch; bytes 0, 2, 4 as lanes
	const _ = uint16(model.PatchSize * model.PatchSize * 0xff) // a patch's lane sum fits its lane
	quad := func(t, b uint64) uint64 {
		e, d := t&m+b&m, t>>8&m+b>>8&m                     // lanes r0 b0 g1, g0 r1 b1
		return (e + d>>16 + d<<32) >> 2 & 0x3fff_3fff_3fff // one destination pixel's r, b, g: 2x2 sums /4
	}
	for o := 0; o < model.PatchSize*2*stride; o += 2 * stride {
		top, bot := (*[patch]byte)(rgb[o:]), (*[patch]byte)(rgb[o+stride:])
		for x := 0; x < patch-11; x += 12 {
			s += quad(binary.LittleEndian.Uint64(top[x:x+8:x+8]), binary.LittleEndian.Uint64(bot[x:x+8:x+8])) +
				quad(binary.LittleEndian.Uint64(top[x+4:x+12:x+12])>>16, binary.LittleEndian.Uint64(bot[x+4:x+12:x+12])>>16)
		}
	}
	return s
}
