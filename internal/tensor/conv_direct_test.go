package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specialWeights fills w with the values a float32 chain treats
// specially — ±0, denormals, ±Inf, NaN — among ordinary ones. Unless
// mixed, each output channel draws from the infinities or from NaN, not
// both, as a single weight fault does: the kernels pin such a chain's
// bits, but not which payload survives when a chain adds a NaN weight's
// product to the default NaN of an Inf·0 or Inf−Inf — the AVX2 kernels
// keep the accumulator's, Go's scalar loops either (DESIGN §10).
func specialWeights(rng *rand.Rand, w *Tensor, mixed bool) {
	finite := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff)}
	row := len(w.data) / w.shape[0]
	for oc := 0; oc < w.shape[0]; oc++ {
		vals := append(finite, inf32, -inf32)
		switch {
		case mixed:
			vals = append(vals, nan32)
		case rng.Intn(2) == 0:
			vals = append(finite, nan32)
		}
		for i := oc * row; i < (oc+1)*row; i++ {
			if rng.Intn(3) == 0 {
				w.data[i] = vals[rng.Intn(len(vals))]
			}
		}
	}
}

// runStaging runs a conv job through the one unit loop with B's staging
// forced: the bordered plane (direct), or the pointwise slab or im2col
// matrix, whatever run would pick.
func runStaging[In, AP, Out elem](j *convJob[In, AP, Out], direct bool) {
	j.direct = direct
	convUnits(j.cv.n*j.cv.g, j.units)
}

// convBothLowerings runs one float32 forward on the im2col staging and
// one on the direct staging.
func convBothLowerings(x, w, bias *Tensor, spec ConvSpec) (im2col, direct *Tensor) {
	cv := checkConvShapes(x, w.shape, spec)
	im2col, direct = New(cv.n, cv.cout, cv.oh, cv.ow), New(cv.n, cv.cout, cv.oh, cv.ow)
	runStaging(&newF32Conv(im2col, x, w, bias, &cv).job, false)
	runStaging(&newF32Conv(direct, x, w, bias, &cv).job, true)
	return im2col, direct
}

// requireSameBits requires got and want to be equal by Float32bits; with
// anyNaN, two NaNs match whatever their payloads.
func requireSameBits(t *testing.T, what string, got, want *Tensor, anyNaN bool) {
	t.Helper()
	for i, v := range got.data {
		if anyNaN && v != v && want.data[i] != want.data[i] {
			continue
		}
		if math.Float32bits(v) != math.Float32bits(want.data[i]) {
			t.Fatalf("%s: element %d = %g (%#08x), want %g (%#08x)", what, i, v, math.Float32bits(v), want.data[i], math.Float32bits(want.data[i]))
		}
	}
}

// checkDirect requires the direct lowering to reproduce the im2col
// lowering bit for bit at one and four workers, and its scalar twins
// (the gemmAVX2 gate off) to reproduce its AVX2 kernels; with anyNaN,
// up to NaN payloads.
func checkDirect(t *testing.T, x, w, bias *Tensor, spec ConvSpec, anyNaN bool) {
	t.Helper()
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	ref, got := convBothLowerings(x, w, bias, spec)
	requireSameBits(t, "direct vs im2col, 1 worker", got, ref, anyNaN)
	SetWorkers(4)
	ref4, got4 := convBothLowerings(x, w, bias, spec)
	requireSameBits(t, "im2col, 4 workers vs 1", ref4, ref, anyNaN)
	requireSameBits(t, "direct, 4 workers vs 1", got4, ref, anyNaN)
	saved := gemmAVX2
	gemmAVX2 = false
	_, scalar := convBothLowerings(x, w, bias, spec)
	gemmAVX2 = saved
	requireSameBits(t, "direct, scalar kernels", scalar, ref, anyNaN)
}

// TestConvDirectMatchesIm2col is the direct lowering's parity wall: over
// the geometries it serves and the edges of its virtual columns and
// blocking, and under weights a fault can produce, every output bit
// equals the im2col lowering's, on the float32 backend and (int8/…) on
// the int8 one.
func TestConvDirectMatchesIm2col(t *testing.T) {
	type tc struct {
		name         string
		n, c, h, w   int
		cout, kh, kw int
		spec         ConvSpec
	}
	cases := []tc{
		{"3x3-pad1", 1, 4, 8, 8, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"5x5-pad2", 1, 3, 12, 12, 3, 5, 5, ConvSpec{PadH: 2, PadW: 2}},
		{"asym-pad-3x5", 1, 3, 9, 11, 4, 3, 5, ConvSpec{PadH: 1, PadW: 2}},
		{"asym-pad-5x3", 1, 3, 10, 7, 4, 5, 3, ConvSpec{PadH: 2, PadW: 0}},
		{"unpadded-5x5", 1, 4, 16, 16, 8, 5, 5, ConvSpec{}},
		{"grouped", 1, 8, 10, 10, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 2}},
		{"depthwise", 1, 6, 9, 9, 6, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 6}},
		{"batch8", 8, 5, 12, 12, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		// k past one gemmKC chunk (the DenseNet dense layer), and rows
		// past one gemmMC block with a 4-row remainder split.
		{"dense-k360", 1, 40, 32, 32, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"tall-m102", 1, 30, 10, 10, 102, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		// 4×4 maps are never routed here; the lowering is still exact.
		{"4x4", 1, 16, 4, 4, 16, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
	}
	for _, ow := range []int{7, 8, 9, 16, 32, 33} {
		cases = append(cases, tc{fmt.Sprintf("ow%d", ow), 1, 3, 6, ow, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}})
	}
	for _, cout := range []int{1, 3, 8, 28} {
		cases = append(cases, tc{fmt.Sprintf("cout%d", cout), 1, 5, 16, 16, cout, 3, 3, ConvSpec{PadH: 1, PadW: 1}})
	}
	rng := rand.New(rand.NewSource(61))
	// "special" weights keep one NaN family per channel and must match
	// bit for bit; "mixed-nan" channels mix them and match up to the
	// surviving NaN's payload.
	for _, c := range cases {
		for _, weights := range []string{"random", "special", "mixed-nan"} {
			t.Run(c.name+"/"+weights, func(t *testing.T) {
				spec := c.spec.Canon()
				x := RandUniform(rng, -1, 1, c.n, c.c, c.h, c.w)
				w := RandUniform(rng, -1, 1, c.cout, c.c/spec.Groups, c.kh, c.kw)
				b := RandUniform(rng, -1, 1, c.cout)
				if weights != "random" {
					specialWeights(rng, w, weights == "mixed-nan")
					x.data[0], x.data[len(x.data)-1] = float32(math.Copysign(0, -1)), math.Float32frombits(3)
				}
				checkDirect(t, x, w, b, spec, weights == "mixed-nan")
			})
		}
	}
	t.Run("int8", testConvDirectI8)
}

// convI8Lowering runs one int8 forward on the direct staging (direct)
// or the pointwise slab or im2col staging.
func convI8Lowering(x *Tensor, wq []int8, wShape []int, qp QuantParams, spec ConvSpec, direct bool) *Tensor {
	cv := checkConvShapes(x, wShape, spec)
	dst := New(cv.n, cv.cout, cv.oh, cv.ow)
	qp.check("Conv2dInt8", wq, cv.cout, cv.kdim, cv.g)
	runStaging(&newI8Conv(dst, x, wq, qp, &cv).job, direct)
	return dst
}

// naiveConvI8 is the int8 forward as a direct loop over the input codes,
// out-of-image taps reading the zero-point code, folded as the epilogue
// folds: the reference every staging must equal exactly.
func naiveConvI8(x *Tensor, wq []int8, wShape []int, qp QuantParams, spec ConvSpec) *Tensor {
	cv := checkConvShapes(x, wShape, spec)
	xq := make([]int8, len(x.data))
	QuantizeI8Into(xq, x.data, qp.InScale, qp.InZP)
	out, sp := New(cv.n, cv.cout, cv.oh, cv.ow), cv.spec
	for s := 0; s < cv.n; s++ {
		for oc := 0; oc < cv.cout; oc++ {
			c0 := oc / cv.coutG * cv.cg
			corr, scale, bias := qp.fold(oc)
			for oy := 0; oy < cv.oh; oy++ {
				for ox := 0; ox < cv.ow; ox++ {
					var acc int32
					for c := 0; c < cv.cg; c++ {
						for ky := 0; ky < cv.kh; ky++ {
							for kx := 0; kx < cv.kw; kx++ {
								code := qp.InZP
								iy, ix := oy*sp.StrideH-sp.PadH+ky, ox*sp.StrideW-sp.PadW+kx
								if iy >= 0 && iy < cv.h && ix >= 0 && ix < cv.wd {
									code = xq[((s*cv.c+c0+c)*cv.h+iy)*cv.wd+ix]
								}
								acc += int32(wq[((oc*cv.cg+c)*cv.kh+ky)*cv.kw+kx]) * int32(code)
							}
						}
					}
					out.data[((s*cv.cout+oc)*cv.oh+oy)*cv.ow+ox] = requantI8(acc, corr, scale, bias, 0)
				}
			}
		}
	}
	return out
}

// checkConvI8Stagings requires every int8 staging — the pointwise slab or
// im2col matrix, and on stride-1 convs the direct plane, each with A
// read in place from panels packed once, handed over or packed per call — to
// reproduce the naive reference exactly at one and four workers and on
// the scalar twins (the gemmAVX2 gate off). Power-of-two scales and no
// bias make every output the exact image of its int32 accumulator.
func checkConvI8Stagings(t *testing.T, x *Tensor, wq []int8, wShape []int, zp int8, spec ConvSpec) {
	t.Helper()
	cout := wShape[0]
	qp := powerOfTwoQuant(wq, cout, zp)
	withPanels := qp
	withPanels.Panels = PackPanelsI8(wq, cout, spec.Canon().Groups)
	stagings := []bool{false}
	if spec = spec.Canon(); spec.StrideH == 1 && spec.StrideW == 1 {
		stagings = append(stagings, true)
	}

	prev := SetWorkers(1)
	defer SetWorkers(prev)
	ref := naiveConvI8(x, wq, wShape, qp, spec)
	saved := gemmAVX2
	defer func() { gemmAVX2 = saved }()
	for _, run := range []struct {
		what    string
		workers int
		scalar  bool
	}{{"1 worker", 1, false}, {"4 workers", 4, false}, {"scalar kernels", 1, true}, {"scalar kernels, 4 workers", 4, true}} {
		SetWorkers(run.workers)
		gemmAVX2 = saved && !run.scalar
		for _, direct := range stagings {
			what := map[bool]string{false: "int8 im2col", true: "int8 direct"}[direct]
			requireSameBits(t, what+", panels packed per call, "+run.what, convI8Lowering(x, wq, wShape, qp, spec, direct), ref, false)
			requireSameBits(t, what+", panels, "+run.what, convI8Lowering(x, wq, wShape, withPanels, spec, direct), ref, false)
		}
	}
}

// randCodes returns n int8 weight codes over the full range, -128 (a
// flipped sign bit's code) included.
func randCodes(rng *rand.Rand, n int) []int8 {
	wq := make([]int8, n)
	for i := range wq {
		wq[i] = int8(rng.Intn(256) - 128)
	}
	return wq
}

// testConvDirectI8 is the int8 half of the parity wall: every staging's
// int32 sums, with A read from panels handed over or packed per call,
// equal the naive reference at every geometry edge — odd kdim (the pair
// pad tap), kdim past gemmKC, coutG off whole panels, rows past gemmMC
// and split by rows across workers, and the pointwise and strided convs
// only the packed B staging serves — under a zero and a non-zero
// zero-point border.
func testConvDirectI8(t *testing.T) {
	type tc struct {
		name         string
		n, c, h, w   int
		cout, kh, kw int
		spec         ConvSpec
	}
	cases := []tc{
		{"stem-k27", 1, 3, 32, 32, 16, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"dense-k360", 1, 40, 32, 32, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"dense-8x8-k468", 1, 52, 8, 8, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"odd-k261", 1, 29, 10, 10, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"5x5-pad2", 1, 3, 12, 12, 3, 5, 5, ConvSpec{PadH: 2, PadW: 2}},
		{"asym-pad-3x5", 1, 3, 9, 11, 4, 3, 5, ConvSpec{PadH: 1, PadW: 2}},
		{"unpadded-5x5", 1, 4, 16, 16, 8, 5, 5, ConvSpec{}},
		{"grouped", 1, 8, 10, 10, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 2}},
		{"grouped-coutG3", 1, 4, 10, 10, 6, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 2}},
		{"depthwise", 1, 6, 9, 9, 6, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 6}},
		{"batch8", 8, 5, 12, 12, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"tall-m102", 1, 30, 10, 10, 102, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"rows-split-m130", 1, 4, 6, 6, 130, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"rows-split-m130-odd-k27", 1, 3, 6, 6, 130, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"4x4", 1, 16, 4, 4, 16, 3, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"pointwise", 1, 48, 8, 8, 24, 1, 1, ConvSpec{}},
		{"pointwise-grouped-coutG5", 1, 12, 6, 6, 10, 1, 1, ConvSpec{Groups: 2}},
		{"stride2", 1, 32, 16, 16, 64, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{"stride2-grouped-coutG3", 2, 6, 9, 11, 6, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 2}},
		{"stride2-odd-k261", 1, 29, 10, 10, 8, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{"stride2-rows-split-m130", 1, 4, 12, 12, 130, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
	}
	for _, ow := range []int{7, 8, 9, 33} {
		cases = append(cases, tc{fmt.Sprintf("ow%d", ow), 1, 3, 6, ow, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}})
	}
	for _, cout := range []int{1, 3, 5, 28} {
		cases = append(cases, tc{fmt.Sprintf("cout%d", cout), 1, 5, 16, 16, cout, 3, 3, ConvSpec{PadH: 1, PadW: 1}})
	}
	rng := rand.New(rand.NewSource(67))
	for _, c := range cases {
		for _, zp := range []int8{0, -128, 37} {
			t.Run(fmt.Sprintf("%s/zp%d", c.name, zp), func(t *testing.T) {
				spec := c.spec.Canon()
				x := RandUniform(rng, -2.5, 2.5, c.n, c.c, c.h, c.w)
				wShape := []int{c.cout, c.c / spec.Groups, c.kh, c.kw}
				checkConvI8Stagings(t, x, randCodes(rng, c.cout*c.c/spec.Groups*c.kh*c.kw), wShape, zp, spec)
			})
		}
	}
}

// TestConvPanelsI8Set pins Set to the pack: rewriting every code through
// Set, on panels packed from other codes, gives the panels of the new
// codes — padding rows and the odd-k pad tap untouched.
func TestConvPanelsI8Set(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, c := range []struct{ cout, groups, kdim int }{{16, 1, 27}, {8, 1, 360}, {6, 2, 36}, {6, 6, 9}, {5, 1, 7}} {
		wq, next := randCodes(rng, c.cout*c.kdim), randCodes(rng, c.cout*c.kdim)
		p := PackPanelsI8(wq, c.cout, c.groups)
		for off, code := range next {
			p.Set(off, code)
		}
		if want := PackPanelsI8(next, c.cout, c.groups); !slices.Equal(p.data, want.data) {
			t.Fatalf("%+v: panels after Set differ from a fresh pack", c)
		}
	}
}

// TestConvDirectRouting pins the eligibility rule: stride-1 convs whose
// virtual columns stay within 1.25× the output take the direct lowering;
// strided, pointwise and 4×4-map convs do not.
func TestConvDirectRouting(t *testing.T) {
	for _, c := range []struct {
		name         string
		h, w, kh, kw int
		spec         ConvSpec
		direct       bool
	}{
		{"dense-32x32", 32, 32, 3, 3, ConvSpec{PadH: 1, PadW: 1}, true},
		{"dense-8x8", 8, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1}, true},
		{"5x5-pad2", 16, 16, 5, 5, ConvSpec{PadH: 2, PadW: 2}, true},
		{"resnet-4x4", 4, 4, 3, 3, ConvSpec{PadH: 1, PadW: 1}, false},
		{"strided", 32, 32, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, false},
		{"pointwise", 32, 32, 1, 1, ConvSpec{}, false},
	} {
		x := New(1, 2, c.h, c.w)
		cv := checkConvShapes(x, []int{2, 2, c.kh, c.kw}, c.spec)
		if got := cv.direct(); got != c.direct {
			t.Errorf("%s: direct() = %v, want %v", c.name, got, c.direct)
		}
	}
}

// FuzzConvDirect: for any stride-1 geometry the direct lowering equals
// the im2col lowering bit for bit on both backends, special float32
// weights included.
func FuzzConvDirect(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(8), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), false, int64(1))
	f.Add(uint8(2), uint8(6), uint8(5), uint8(9), uint8(3), uint8(5), uint8(3), uint8(2), uint8(1), uint8(3), true, int64(2))
	f.Add(uint8(1), uint8(40), uint8(12), uint8(12), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), true, int64(3))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(17), uint8(5), uint8(1), uint8(7), uint8(0), uint8(4), uint8(1), false, int64(4))
	f.Fuzz(func(t *testing.T, n, c, h, w, cout, kh, kw, ph, pw, groups uint8, special bool, seed int64) {
		spec := ConvSpec{PadH: int(ph % 4), PadW: int(pw % 4), Groups: int(groups%4) + 1}
		N, C, Cout := int(n%3)+1, int(c%48)+1, int(cout%20)+1
		H, W, KH, KW := int(h%20)+1, int(w%40)+1, int(kh%6)+1, int(kw%6)+1
		if C%spec.Groups != 0 || Cout%spec.Groups != 0 || H+2*spec.PadH < KH || W+2*spec.PadW < KW {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := RandUniform(rng, -1, 1, N, C, H, W)
		wt := RandUniform(rng, -1, 1, Cout, C/spec.Groups, KH, KW)
		if special {
			specialWeights(rng, wt, false)
		}
		checkDirect(t, x, wt, RandUniform(rng, -1, 1, Cout), spec, false)
		checkConvI8Stagings(t, x, randCodes(rng, wt.Len()), wt.Shape(), int8(seed), spec)
	})
}

// TestConvBiasSameBitsOnEveryStaging: the direct staging adds the bias
// as compaction copies, the others in finish's separate pass; both are
// the one add after the full chain naiveConv2d makes, so a biased conv
// has the same bits on the direct staging, the im2col staging and the
// naive reference — at one and four workers, on both kernel tiers, and
// for the biases a weight fault can leave: ±Inf, NaN with a payload, ±0.
func TestConvBiasSameBitsOnEveryStaging(t *testing.T) {
	specials := []float32{inf32, -inf32, math.Float32frombits(0x7fc12345), float32(math.Copysign(0, -1)), 0}
	rng := rand.New(rand.NewSource(83))
	for _, c := range []struct {
		name           string
		n, c, h, w, co int
		spec           ConvSpec
	}{
		{"3x3-pad1", 2, 3, 12, 12, 16, ConvSpec{PadH: 1, PadW: 1}},
		{"grouped", 1, 8, 10, 9, 12, ConvSpec{PadH: 1, PadW: 1, Groups: 2}},
		{"unpadded", 1, 4, 9, 13, 6, ConvSpec{}},
	} {
		x := RandUniform(rng, -1, 1, c.n, c.c, c.h, c.w)
		w := RandUniform(rng, -1, 1, c.co, c.c/c.spec.Canon().Groups, 3, 3)
		bias := RandUniform(rng, -1, 1, c.co)
		for i, v := range specials {
			bias.data[i] = v
		}
		want := naiveConv2d(x, w, bias, c.spec)
		withKernelPaths(t, func(path string) {
			for _, workers := range []int{1, 4} {
				prev := SetWorkers(workers)
				im2col, direct := convBothLowerings(x, w, bias, c.spec)
				SetWorkers(prev)
				what := fmt.Sprintf("%s, %s, %d workers", c.name, path, workers)
				requireSameBits(t, what+": im2col vs naive", im2col, want, false)
				requireSameBits(t, what+": direct vs naive", direct, want, false)
			}
		})
	}
}

// TestInPlaceBReadPastEndPanics pins the guard in front of the unchecked
// assembly reads: an in-place B whose last row would run past b panics
// before any kernel reads it.
func TestInPlaceBReadPastEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gemmSerial read past in-place B without panicking")
		}
	}()
	var sc scratch
	defer sc.release()
	k, n := 3, 2*gemmNR
	op := f32Op{dst: make([]float32, n), ldc: n, a: make([]float32, k), lda: k,
		b: make([]float32, 2+n-1), offs: []int32{0, 1, 2}, m: 1, k: k, n: n}
	gemmSerial(f32Kernels, &op, &sc)
}
