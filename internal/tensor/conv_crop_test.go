package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvCropBox: the grown box contains the asked one and lies inside
// the plane; on a stride-1 spatial conv its crop takes the direct
// lowering and on a pointwise or strided one it fills whole column tiles
// past gemmSmall, unless no box does; and the cropped forward — the
// receptive input with its padding written out, under Pad 0 — equals the
// dense forward over the box bit for bit.
func TestConvCropBox(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name          string
		k, stride, pd int
		h, w          int
	}{
		{"3x3_pad1", 3, 1, 1, 32, 32},
		{"3x3_pad1_small_plane", 3, 1, 1, 6, 5},
		{"3x3_stride2", 3, 2, 1, 16, 16},
		{"1x1", 1, 1, 0, 16, 16},
		{"5x5_unpadded", 5, 1, 0, 20, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cin, cout = 12, 8
			spec := ConvSpec{StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pd, PadW: tc.pd}.Canon()
			x := RandUniform(rng, -1, 1, 1, cin, tc.h, tc.w)
			w := RandUniform(rng, -1, 1, cout, cin, tc.k, tc.k)
			dense := Conv2d(x, w, nil, spec)
			oh, ow := dense.Dim(2), dense.Dim(3)
			for trial := 0; trial < 30; trial++ {
				y0, x0 := rng.Intn(oh), rng.Intn(ow)
				y1, x1 := y0+1+rng.Intn(min(3, oh-y0)), x0+1+rng.Intn(min(3, ow-x0))
				by0, by1, bx0, bx1 := ConvCropBox(y0, y1, x0, x1, oh, ow, cin, w.shape, spec)
				if by0 < 0 || bx0 < 0 || by1 > oh || bx1 > ow || by0 > y0 || bx0 > x0 || by1 < y1 || bx1 < x1 {
					t.Fatalf("box [%d,%d)x[%d,%d) grew to [%d,%d)x[%d,%d) in a %dx%d plane", y0, y1, x0, x1, by0, by1, bx0, bx1, oh, ow)
				}
				bh, bw := by1-by0, bx1-bx0
				ih, iw := (bh-1)*spec.StrideH+tc.k, (bw-1)*spec.StrideW+tc.k
				crop := New(1, cin, ih, iw)
				for c := 0; c < cin; c++ {
					for y := 0; y < ih; y++ {
						for xx := 0; xx < iw; xx++ {
							sy, sx := by0*spec.StrideH-spec.PadH+y, bx0*spec.StrideW-spec.PadW+xx
							if sy >= 0 && sy < tc.h && sx >= 0 && sx < tc.w {
								crop.Set(x.At(0, c, sy, sx), 0, c, y, xx)
							}
						}
					}
				}
				cropSpec := spec
				cropSpec.PadH, cropSpec.PadW = 0, 0
				cv := checkConvShapes(crop, w.shape, cropSpec)
				vector := cv.direct() || (!(spec.StrideH == 1 && tc.k > 1) && cv.l%gemmNR == 0 && !gemmTiny(cout, cv.kdim, cv.l))
				if !vector && (by0 != y0 || by1 != y1 || bx0 != x0 || bx1 != x1) {
					t.Fatalf("box grew to %dx%d yet its crop misses the vector path", bh, bw)
				}
				got := Conv2d(crop, w, nil, cropSpec)
				for c := 0; c < cout; c++ {
					for y := 0; y < bh; y++ {
						for xx := 0; xx < bw; xx++ {
							g, d := got.At(0, c, y, xx), dense.At(0, c, by0+y, bx0+xx)
							if math.Float32bits(g) != math.Float32bits(d) {
								t.Fatalf("crop (%d,%d,%d) = %v, dense %v", c, y, xx, g, d)
							}
						}
					}
				}
			}
		})
	}
}
