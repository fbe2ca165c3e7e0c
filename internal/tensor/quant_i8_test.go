package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quantizeI8Reference is QuantizeI8Into as the backend wrote it before
// the rounding rule went branch-free and gained an AVX2 tier, kept
// verbatim as the reference both paths must reproduce bit for bit.
func quantizeI8Reference(dst []int8, src []float32, scale float32, zp int8) {
	if scale <= 0 {
		for i := range dst {
			dst[i] = zp
		}
		return
	}
	for i, v := range src {
		q := v / scale
		var r int32
		if q >= 0 {
			r = int32(q + 0.5)
		} else {
			r = int32(q - 0.5)
		}
		r += int32(zp)
		if r > 127 {
			r = 127
		}
		if r < -127 {
			r = -127
		}
		dst[i] = int8(r)
	}
}

// requantReference is the int8 epilogue as two passes, the way the
// backend ran it before the snap moved into the epilogue: the dequant
// fold of Conv2dInt8Into, then quant.QuantizeTensor's round trip
// (scaleQuantizeReference, then Dequantize's code · scale). outScale 0
// skips the second pass, which is what QuantParams.OutScale 0 means.
func requantReference(orow []float32, arow []int32, corr int32, scale, bv, outScale float32) {
	for i, av := range arow {
		orow[i] = float32(av-corr)*scale + bv
	}
	if outScale == 0 {
		return
	}
	for i, v := range orow {
		orow[i] = float32(scaleQuantizeReference(v, outScale)) * outScale
	}
}

// scaleQuantizeReference is quant.Scale.Quantize as it was written before
// it delegated to QuantizeI8.
func scaleQuantizeReference(v, s float32) int8 {
	if s <= 0 {
		return 0
	}
	q := v / s
	// Round half away from zero, then saturate.
	var r int32
	if q >= 0 {
		r = int32(q + 0.5)
	} else {
		r = int32(q - 0.5)
	}
	if r > 127 {
		r = 127
	}
	if r < -127 {
		r = -127
	}
	return int8(r)
}

// withKernelPaths runs fn on the dispatching path (AVX2 when the CPU has
// it) and then with the AVX2 tier forced off, as
// TestGemmI8ForcedScalarMatchesDefault does for the GEMM.
func withKernelPaths(t *testing.T, fn func(path string)) {
	t.Helper()
	saved := gemmAVX2
	defer func() { gemmAVX2 = saved }()
	fn(KernelBackend())
	gemmAVX2 = false
	fn("forced-scalar")
}

// quantSpecials are the inputs where a rounding rule can go wrong: signed
// zeros, infinities, NaNs of both signs and both kinds with payloads,
// the float32 extremes, values whose quotient overflows int32, denormals.
var quantSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, // quiet NaN
	0x7fc12345, 0xffc12345, // quiet NaN with payload
	0x7f800001, 0xff800001, // signalling NaN
	0x7fa54321, 0xffa54321, // signalling NaN with payload
	0x7fffffff, 0xffffffff, // all-ones payload
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x00000001, 0x80000001, // ± smallest denormal
	0x007fffff, 0x807fffff, // ± largest denormal
	0x00800000, 0x80800000, // ± smallest normal
	math.Float32bits(1e30), math.Float32bits(-1e30),
	math.Float32bits(3e9), math.Float32bits(-3e9),
	math.Float32bits(2147483520), math.Float32bits(-2147483648),
}

// quantInputs returns the specials, every ±k.5 point for k in [0, 130]
// scaled by scale with its float neighbours either side (so the tie and
// both sides of it reach the rounding step for that scale), and n random
// bit patterns.
func quantInputs(rng *rand.Rand, scale float32, n int) []float32 {
	var vals []float32
	for _, b := range quantSpecials {
		vals = append(vals, math.Float32frombits(b))
	}
	for k := 0; k <= 130; k++ {
		for _, sign := range []float32{1, -1} {
			v := sign * (float32(k) + 0.5) * scale
			vals = append(vals, v, math.Nextafter32(v, float32(math.Inf(1))), math.Nextafter32(v, float32(math.Inf(-1))))
			w := sign * float32(k) * scale
			vals = append(vals, w, math.Nextafter32(w, float32(math.Inf(1))), math.Nextafter32(w, float32(math.Inf(-1))))
		}
	}
	for i := 0; i < n; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	return vals
}

// quantScales covers unit, power-of-two, ordinary, tiny and denormal
// scales, plus the degenerate non-positive ones.
var quantScales = []float32{1, 1.0 / 128, 1.0 / 127, 0.3, 3.7, 1e-3, 2.5e-40, 0, -1}

var quantZPs = []int8{-127, -7, 0, 7, 127}

// quantLengths are 0…40 and 1024…1040, so every tail length of the
// 16-lane kernels runs, after both no and many full vectors.
func quantLengths() []int {
	var ls []int
	for n := 0; n <= 40; n++ {
		ls = append(ls, n)
	}
	for k := 0; k <= 16; k++ {
		ls = append(ls, 1024+k)
	}
	return ls
}

// TestQuantizeI8VecMatchesReference pins QuantizeI8Into (AVX2 tier and
// forced scalar) and the scalar helper QuantizeI8 to the branching
// reference loop on every input class, scale and zero-point above, then
// on every length so each kernel tail runs at several alignments.
func TestQuantizeI8VecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, scale := range quantScales {
		vals := quantInputs(rng, scale, 100000)
		want := make([]int8, len(vals))
		got := make([]int8, len(vals))
		for _, zp := range quantZPs {
			quantizeI8Reference(want, vals, scale, zp)
			for i, v := range vals {
				if c := QuantizeI8(v, scale, zp); c != want[i] {
					t.Fatalf("QuantizeI8(%#08x, scale %g, zp %d) = %d, reference %d", math.Float32bits(v), scale, zp, c, want[i])
				}
			}
			withKernelPaths(t, func(path string) {
				QuantizeI8Into(got, vals, scale, zp)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: scale %g zp %d: code of %#08x = %d, reference %d", path, scale, zp, math.Float32bits(vals[i]), got[i], want[i])
					}
				}
			})
		}
	}

	vals := quantInputs(rng, 1.0/127, 2000)
	for _, n := range quantLengths() {
		for _, off := range []int{0, 1, 3} {
			src := vals[off : off+n]
			want := make([]int8, n)
			quantizeI8Reference(want, src, 1.0/127, -7)
			withKernelPaths(t, func(path string) {
				got := make([]int8, n)
				QuantizeI8Into(got, src, 1.0/127, -7)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: length %d offset %d: element %d = %d, reference %d", path, n, off, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestRequantEpilogueMatchesReference pins the fused epilogue (requantRow:
// AVX2 tier and forced scalar) to the two-pass reference — fold, then
// snap — by Float32bits, on accumulators at the int32 extremes with
// corrections that wrap, random accumulators, accumulators whose
// quotient lands exactly on a ±k.5 tie, biases nil (+0) and present,
// several output scales including a denormal one, and every tail length.
func TestRequantEpilogueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	var accs []int32
	for _, a := range []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 1, 0, 1, -1} {
		accs = append(accs, a)
	}
	for a := int32(-600); a <= 600; a++ {
		accs = append(accs, a)
	}
	for i := 0; i < 10000; i++ {
		accs = append(accs, int32(rng.Uint32()))
	}
	corrs := []int32{0, 1, -7 * 1234, 127 * 40000, math.MinInt32, math.MaxInt32}
	outScales := []float32{1.0 / 127, 0.05, 3.7, 2.5e-40, 0}
	for _, corr := range corrs {
		for _, outScale := range outScales {
			// scale = outScale/2 puts every odd acc−corr exactly on a tie.
			for _, scale := range []float32{outScale / 2, 1.3e-4, 2.5e-40} {
				for _, bias := range []float32{0, -0.37, float32(math.Copysign(0, -1)), 11} {
					want := make([]float32, len(accs))
					got := make([]float32, len(accs))
					requantReference(want, accs, corr, scale, bias, outScale)
					for i, av := range accs {
						if v := requantI8(av, corr, scale, bias, outScale); math.Float32bits(v) != math.Float32bits(want[i]) {
							t.Fatalf("requantI8(acc %d, corr %d, scale %g, bias %g, out %g) = %#08x, reference %#08x", av, corr, scale, bias, outScale, math.Float32bits(v), math.Float32bits(want[i]))
						}
					}
					withKernelPaths(t, func(path string) {
						requantRow(got, accs, corr, scale, bias, outScale)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s: corr %d scale %g bias %g out %g: acc %d → %#08x, reference %#08x", path, corr, scale, bias, outScale, accs[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					})
				}
			}
		}
	}

	for _, n := range quantLengths() {
		for _, off := range []int{0, 1, 5} {
			acc := accs[1000+off : 1000+off+n]
			want := make([]float32, n)
			requantReference(want, acc, -7*1234, 1.3e-4, 0.25, 0.05)
			withKernelPaths(t, func(path string) {
				got := make([]float32, n)
				requantRow(got, acc, -7*1234, 1.3e-4, 0.25, 0.05)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: length %d offset %d: element %d = %#08x, reference %#08x", path, n, off, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			})
		}
	}
}

// FuzzQuantizeI8: on arbitrary bytes read as float32 inputs (and as
// int32 accumulators), any scale bit pattern and any zero-point, the
// dispatching QuantizeI8Into and requantRow equal the references.
func FuzzQuantizeI8(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x3f, 0, 0, 0xc0, 0xbf, 0, 0, 0xc0, 0x7f}, math.Float32bits(1.0/127), int8(-7), int32(0))
	f.Add(make([]byte, 4*37), math.Float32bits(2.5e-40), int8(127), int32(math.MinInt32))
	f.Fuzz(func(t *testing.T, data []byte, scaleBits uint32, zp int8, corr int32) {
		n := len(data) / 4
		vals := make([]float32, n)
		accs := make([]int32, n)
		for i := range vals {
			u := binary.LittleEndian.Uint32(data[4*i:])
			vals[i], accs[i] = math.Float32frombits(u), int32(u)
		}
		scale := math.Float32frombits(scaleBits)

		want, got := make([]int8, n), make([]int8, n)
		quantizeI8Reference(want, vals, scale, zp)
		QuantizeI8Into(got, vals, scale, zp)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scale %#08x zp %d: code of %#08x = %d, reference %d", scaleBits, zp, math.Float32bits(vals[i]), got[i], want[i])
			}
		}

		if scale <= 0 {
			return // a non-positive OutScale means "no snap", not the reference's all-zero grid
		}
		wantF, gotF := make([]float32, n), make([]float32, n)
		requantReference(wantF, accs, corr, 1.3e-4, 0.5, scale)
		requantRow(gotF, accs, corr, 1.3e-4, 0.5, scale)
		for i := range wantF {
			if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
				t.Fatalf("out %#08x corr %d: acc %d → %#08x, reference %#08x", scaleBits, corr, accs[i], math.Float32bits(gotF[i]), math.Float32bits(wantF[i]))
			}
		}
	})
}
