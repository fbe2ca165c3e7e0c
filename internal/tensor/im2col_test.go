package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// im2colGeom is one im2colInto call: a [c, h, w] sample, a kh×kw kernel
// and a spec whose Groups splits c.
type im2colGeom struct {
	c, h, w, kh, kw int
	spec            ConvSpec
}

func (g im2colGeom) String() string {
	return fmt.Sprintf("c%d_%dx%d_k%dx%d_s%dx%d_p%dx%d_g%d", g.c, g.h, g.w, g.kh, g.kw,
		g.spec.StrideH, g.spec.StrideW, g.spec.PadH, g.spec.PadW, g.spec.Groups)
}

// valid reports whether the geometry has a positive output size and
// channels divisible by groups.
func (g im2colGeom) valid() bool {
	s := g.spec
	return g.c > 0 && g.h > 0 && g.w > 0 && g.kh > 0 && g.kw > 0 &&
		s.StrideH > 0 && s.StrideW > 0 && s.PadH >= 0 && s.PadW >= 0 &&
		s.Groups > 0 && g.c%s.Groups == 0 &&
		g.h+2*s.PadH >= g.kh && g.w+2*s.PadW >= g.kw
}

// naiveIm2col is the per-tap reference: every col element computed from
// its definition, one bounds check per tap.
func naiveIm2col[T float32 | int8](img []T, c0, cg, h, wd, kh, kw, oh, ow int, spec ConvSpec, pad T) []T {
	col := make([]T, cg*kh*kw*oh*ow)
	for c := 0; c < cg; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy := oy*spec.StrideH - spec.PadH + ky
						ix := ox*spec.StrideW - spec.PadW + kx
						v := pad
						if iy >= 0 && iy < h && ix >= 0 && ix < wd {
							v = img[((c0+c)*h+iy)*wd+ix]
						}
						col[(((c*kh+ky)*kw+kx)*oh+oy)*ow+ox] = v
					}
				}
			}
		}
	}
	return col
}

// checkIm2col runs im2colInto for every group of g over a poisoned col
// buffer and requires exact equality with the reference, so an element
// the fast paths skip or write twice with different values both show.
func checkIm2col[T float32 | int8](t testing.TB, g im2colGeom, img []T, pad, poison T, same func(a, b T) bool) {
	t.Helper()
	spec := g.spec
	oh := convOutSize(g.h, g.kh, spec.StrideH, spec.PadH)
	ow := convOutSize(g.w, g.kw, spec.StrideW, spec.PadW)
	cg := g.c / spec.Groups
	col := make([]T, cg*g.kh*g.kw*oh*ow)
	for gi := 0; gi < spec.Groups; gi++ {
		for i := range col {
			col[i] = poison
		}
		im2colInto(col, img, gi*cg, cg, g.h, g.w, g.kh, g.kw, oh, ow, spec, pad)
		want := naiveIm2col(img, gi*cg, cg, g.h, g.w, g.kh, g.kw, oh, ow, spec, pad)
		for i := range want {
			if !same(col[i], want[i]) {
				l := oh * ow
				t.Fatalf("%v group %d: col[tap %d, pixel (%d,%d)] = %v, want %v", g, gi, i/l, i%l/ow, i%ow, col[i], want[i])
			}
		}
	}
}

// checkIm2colBothTypes checks g on float32 (zero pad, NaN poison,
// Float32bits equality) and on int8 with a non-zero zero-point.
func checkIm2colBothTypes(t testing.TB, g im2colGeom, rng *rand.Rand) {
	t.Helper()
	n := g.c * g.h * g.w
	f32, i8 := make([]float32, n), make([]int8, n)
	for i := range f32 {
		f32[i] = rng.Float32()*2 - 1
		i8[i] = int8(rng.Intn(255) - 127)
	}
	checkIm2col(t, g, f32, 0, float32(math.NaN()), func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b)
	})
	// Codes are drawn from [-127, 127], so -128 is free to be the poison.
	checkIm2col(t, g, i8, -7, -128, func(a, b int8) bool { return a == b })
}

// TestIm2colMatchesNaive walls the generic im2col bit-exactly against the
// per-tap reference over every lowering path and their edges: the shifted
// plane copy ("same" unit-stride convs), the unit-stride row path, the
// strided fallback, pads at least as wide as the kernel or the image,
// outputs narrower than the pad, and every group layout.
func TestIm2colMatchesNaive(t *testing.T) {
	s := func(sh, sw, ph, pw, groups int) ConvSpec {
		return ConvSpec{StrideH: sh, StrideW: sw, PadH: ph, PadW: pw, Groups: groups}
	}
	cases := []im2colGeom{
		// Kernel sizes 1/3/5/7 and non-square, "same" padding: plane copy.
		{3, 6, 6, 1, 1, s(1, 1, 0, 0, 1)},
		{3, 8, 8, 3, 3, s(1, 1, 1, 1, 1)},
		{2, 9, 9, 5, 5, s(1, 1, 2, 2, 1)},
		{2, 10, 10, 7, 7, s(1, 1, 3, 3, 1)},
		{2, 7, 9, 1, 5, s(1, 1, 0, 2, 1)},
		{2, 9, 7, 5, 3, s(1, 1, 2, 1, 1)},
		{2, 6, 8, 3, 3, s(1, 1, 0, 1, 1)}, // same width, shrinking height
		{2, 6, 8, 3, 3, s(1, 1, 2, 1, 1)}, // same width, growing height
		// Unit horizontal stride, OW != W: row path.
		{2, 8, 8, 3, 3, s(1, 1, 0, 0, 1)},
		{2, 8, 8, 3, 3, s(1, 1, 1, 0, 1)},
		{2, 8, 8, 3, 3, s(1, 1, 2, 2, 1)},
		{2, 8, 8, 5, 3, s(1, 1, 0, 2, 1)},
		{2, 9, 8, 3, 3, s(2, 1, 1, 1, 1)},
		{2, 9, 8, 3, 5, s(3, 1, 1, 1, 1)},
		// Strides 2/3, H and W independently: strided fallback.
		{2, 9, 9, 3, 3, s(2, 2, 1, 1, 1)},
		{2, 9, 9, 3, 3, s(1, 2, 1, 1, 1)},
		{2, 10, 11, 3, 3, s(1, 3, 0, 2, 1)},
		{2, 10, 11, 5, 5, s(3, 3, 2, 2, 1)},
		{2, 11, 10, 7, 7, s(3, 2, 3, 3, 1)},
		{4, 8, 8, 1, 1, s(2, 2, 0, 0, 1)},
		// Pad >= kernel width: every edge tap's row clamps to all-pad.
		{2, 5, 5, 3, 3, s(1, 1, 3, 3, 1)},
		{2, 5, 5, 3, 3, s(1, 1, 4, 5, 1)},
		{1, 4, 4, 1, 1, s(1, 1, 2, 2, 1)},
		{2, 5, 5, 3, 3, s(2, 2, 3, 4, 1)},
		// Image narrower than the pad, outputs narrower than the pad.
		{2, 1, 1, 3, 3, s(1, 1, 1, 1, 1)},
		{2, 1, 1, 7, 7, s(1, 1, 3, 3, 1)},
		{2, 2, 2, 5, 5, s(1, 1, 2, 2, 1)},
		{2, 3, 1, 3, 7, s(1, 1, 1, 3, 1)},
		{1, 2, 1, 3, 11, s(1, 1, 1, 5, 1)},
		{1, 3, 2, 3, 4, s(1, 1, 1, 3, 1)},
		{2, 5, 2, 2, 6, s(1, 1, 1, 2, 1)}, // all-pad row whose image span would start before the plane
		// Groups 2 and depthwise on each path.
		{4, 6, 6, 3, 3, s(1, 1, 1, 1, 2)},
		{6, 5, 5, 3, 3, s(1, 1, 1, 1, 6)},
		{4, 7, 7, 3, 3, s(1, 1, 0, 0, 2)},
		{6, 7, 7, 3, 3, s(2, 2, 1, 1, 6)},
	}
	rng := rand.New(rand.NewSource(61))
	for _, g := range cases {
		if !g.valid() {
			t.Fatalf("bad table entry %v", g)
		}
		t.Run(g.String(), func(t *testing.T) { checkIm2colBothTypes(t, g, rng) })
	}
}

// TestIm2colRandomGeometry_Property draws geometries the table did not
// think of.
func TestIm2colRandomGeometry_Property(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for done := 0; done < 400; {
		groups := []int{1, 1, 2, 3}[rng.Intn(4)]
		g := im2colGeom{
			c: groups * (1 + rng.Intn(2)), h: 1 + rng.Intn(9), w: 1 + rng.Intn(9),
			kh: 1 + rng.Intn(7), kw: 1 + rng.Intn(7),
			spec: ConvSpec{
				StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
				PadH: rng.Intn(5), PadW: rng.Intn(5), Groups: groups,
			},
		}
		if !g.valid() {
			continue
		}
		done++
		checkIm2colBothTypes(t, g, rng)
	}
}

// FuzzIm2col: for any geometry with a positive output size im2colInto
// never panics and equals the per-tap reference on both element types.
func FuzzIm2col(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(7), uint8(7), uint8(1), uint8(1), uint8(3), uint8(3), uint8(2), int64(2))
	f.Add(uint8(4), uint8(9), uint8(7), uint8(5), uint8(3), uint8(2), uint8(3), uint8(2), uint8(0), uint8(4), int64(3))
	f.Add(uint8(1), uint8(4), uint8(4), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, sh, sw, ph, pw, groups uint8, seed int64) {
		g := im2colGeom{
			c: int(c % 7), h: int(h % 13), w: int(w % 13), kh: int(kh % 9), kw: int(kw % 9),
			spec: ConvSpec{
				StrideH: int(sh % 4), StrideW: int(sw % 4),
				PadH: int(ph % 9), PadW: int(pw % 9), Groups: int(groups % 7),
			},
		}
		if !g.valid() {
			t.Skip()
		}
		checkIm2colBothTypes(t, g, rand.New(rand.NewSource(seed)))
	})
}
