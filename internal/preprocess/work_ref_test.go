package preprocess

import (
	"errors"
	"fmt"

	"disttrain/internal/data"
	"disttrain/internal/model"
)

// The pixel pipeline ProcessSample ran before it became one
// scratch-backed kernel, kept as the differential oracle: four
// allocating passes, one per stage.

// compressImage synthesises the stored (compressed) form of one square
// RGB image: a run-length encoded byte stream generated
// deterministically from the seed. Decoding it costs a pass over every
// output pixel, like a real image codec.
func compressImage(seed uint64, resolution int) []byte {
	pixels := resolution * resolution
	out := make([]byte, 0, pixels/2)
	z := seed | 1
	remaining := pixels
	for remaining > 0 {
		z = z*6364136223846793005 + 1442695040888963407
		run := int(z>>59)%15 + 1 // 1..15 pixel runs
		if run > remaining {
			run = remaining
		}
		r := byte(z >> 16)
		g := byte(z >> 24)
		b := byte(z >> 32)
		out = append(out, byte(run), r, g, b)
		remaining -= run
	}
	return out
}

// decodeImage expands an RLE payload into res*res*3 RGB bytes.
func decodeImage(compressed []byte, resolution int) ([]byte, error) {
	pixels := resolution * resolution
	out := make([]byte, 0, pixels*3)
	for i := 0; i+3 < len(compressed); i += 4 {
		run := int(compressed[i])
		r, g, b := compressed[i+1], compressed[i+2], compressed[i+3]
		for j := 0; j < run; j++ {
			out = append(out, r, g, b)
		}
	}
	if len(out) != pixels*3 {
		return nil, fmt.Errorf("preprocess: decoded %d bytes, want %d", len(out), pixels*3)
	}
	return out, nil
}

// resizeRGB box-filters a square RGB image from srcRes to dstRes
// (dstRes must divide srcRes, the snap-to-patch-grid case).
func resizeRGB(src []byte, srcRes, dstRes int) ([]byte, error) {
	if dstRes <= 0 || srcRes%dstRes != 0 {
		return nil, fmt.Errorf("preprocess: cannot resize %d -> %d", srcRes, dstRes)
	}
	f := srcRes / dstRes
	if f == 1 {
		return src, nil
	}
	out := make([]byte, dstRes*dstRes*3)
	area := f * f
	for y := 0; y < dstRes; y++ {
		for x := 0; x < dstRes; x++ {
			var sr, sg, sb int
			for dy := 0; dy < f; dy++ {
				row := ((y*f + dy) * srcRes) * 3
				for dx := 0; dx < f; dx++ {
					o := row + (x*f+dx)*3
					sr += int(src[o])
					sg += int(src[o+1])
					sb += int(src[o+2])
				}
			}
			o := (y*dstRes + x) * 3
			out[o] = byte(sr / area)
			out[o+1] = byte(sg / area)
			out[o+2] = byte(sb / area)
		}
	}
	return out, nil
}

// packPatches converts an RGB image into patch tokens: one 3-byte mean
// per 16x16 patch (the input layout the modality encoder's patch
// embedding consumes).
func packPatches(rgb []byte, resolution int) []byte {
	side := resolution / model.PatchSize
	out := make([]byte, 0, side*side*3)
	p := model.PatchSize
	for py := 0; py < side; py++ {
		for px := 0; px < side; px++ {
			var sr, sg, sb int
			for dy := 0; dy < p; dy++ {
				row := ((py*p + dy) * resolution) * 3
				for dx := 0; dx < p; dx++ {
					o := row + (px*p+dx)*3
					sr += int(rgb[o])
					sg += int(rgb[o+1])
					sb += int(rgb[o+2])
				}
			}
			n := p * p
			out = append(out, byte(sr/n), byte(sg/n), byte(sb/n))
		}
	}
	return out
}

// referenceProcessSample is ProcessSample over the staged helpers.
func referenceProcessSample(s data.Sample) (Processed, error) {
	out := Processed{SampleIndex: s.Index, GenImages: int32(s.GenImages)}
	for _, ss := range s.Subsequences {
		switch ss.Modality {
		case data.Image:
			srcRes := ss.Resolution * 2
			comp := compressImage(uint64(s.Index)*1000003+uint64(ss.Resolution), srcRes)
			rgb, err := decodeImage(comp, srcRes)
			if err != nil {
				return Processed{}, err
			}
			resized, err := resizeRGB(rgb, srcRes, ss.Resolution)
			if err != nil {
				return Processed{}, err
			}
			out.TokenPayload = append(out.TokenPayload, packPatches(resized, ss.Resolution)...)
			out.ImageTokens += int32(ss.Tokens)
		case data.Text:
			tok := make([]byte, ss.Tokens*2)
			for i := 0; i < ss.Tokens; i++ {
				id := uint16((s.Index + int64(i)) % 32000)
				tok[2*i] = byte(id)
				tok[2*i+1] = byte(id >> 8)
			}
			out.TokenPayload = append(out.TokenPayload, tok...)
			out.TextTokens += int32(ss.Tokens)
		}
	}
	if out.ImageTokens+out.TextTokens == 0 {
		return Processed{}, errors.New("preprocess: empty sample")
	}
	return out, nil
}
