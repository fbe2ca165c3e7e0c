package tensor

import (
	"fmt"
	"math"
)

// The int8 backend's float32 → int8 rounding rule. It is written once in
// Go (roundI8, below) and once in AVX2 assembly (quant_i8_amd64.s);
// internal/quant delegates to QuantizeI8 and SnapI8, so there is no third
// copy. For a quotient q = v/scale:
//
//	code = clamp(int32(q + copysign(0.5, q)) + zp, -127, 127)
//
// that is, round half away from zero, add the zero-point, saturate.
// copysign(0.5, q) is q's sign bit OR'd onto 0.5 (0x3f000000), so the
// rule has no branch: a sign test mispredicts on conv outputs, whose
// signs are random. It equals the branching form
// `if q >= 0 { q + 0.5 } else { q - 0.5 }` on every input: −0 takes
// −0.5 and truncates to 0 as +0 does, NaN stays NaN. An out-of-range or
// NaN sum converts to MinInt32 (CVTTSS2SL and VCVTTPS2DQ return the same
// "integer indefinite"), and the zero-point add then wraps as Go's int32
// addition does, in both forms. quant_i8_test.go holds the branching
// loops the backend used before as references and checks the scalar and
// vector paths against them.

// roundI8 applies the rule to a quotient q = v/scale.
func roundI8(q float32, zp int32) int32 {
	r := int32(q+math.Float32frombits(0x3f000000|math.Float32bits(q)&0x80000000)) + zp
	return min(max(r, -127), 127)
}

// QuantizeI8 returns the affine int8 code of v under (scale, zp). It is
// total: a non-positive scale, which calibration never produces, maps
// every value to zp.
func QuantizeI8(v, scale float32, zp int8) int8 {
	if scale <= 0 {
		return zp
	}
	return int8(roundI8(v/scale, int32(zp)))
}

// SnapI8 is v snapped onto the symmetric int8 grid of scale, the value
// an int8 device storing v reads back: code · scale with the code of
// QuantizeI8(v, scale, 0).
func SnapI8(v, scale float32) float32 {
	return float32(QuantizeI8(v, scale, 0)) * scale
}

// QuantizeI8Into writes the affine int8 codes of src into dst, the rule
// of QuantizeI8 element by element: the AVX2 kernel takes the longest
// multiple-of-16 prefix when the CPU has it, the scalar rule the rest.
func QuantizeI8Into(dst []int8, src []float32, scale float32, zp int8) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeI8Into length mismatch %d != %d", len(dst), len(src)))
	}
	if scale <= 0 {
		for i := range dst {
			dst[i] = zp
		}
		return
	}
	i := quantizeI8Vec(dst, src, scale, zp)
	tail := dst[i:]
	for j, v := range src[i:] {
		tail[j] = int8(roundI8(v/scale, int32(zp)))
	}
}

// requantI8 is one element of the int8 layers' epilogue: the dequant fold
// float32(acc−corr)·scale + bias, then, when outScale > 0, the snap onto
// the layer's output grid (SnapI8 against outScale). A bias-less layer
// passes bias 0, whose +0.0 turns a −0 product into +0.
func requantI8(acc, corr int32, scale, bias, outScale float32) float32 {
	v := float32(acc-corr)*scale + bias
	if outScale <= 0 {
		return v
	}
	return SnapI8(v, outScale)
}

// requantRow applies requantI8 to a row of accumulators sharing one
// output channel's (corr, scale, bias).
func requantRow(dst []float32, acc []int32, corr int32, scale, bias, outScale float32) {
	dst = dst[:len(acc)]
	i := 0
	if outScale > 0 {
		i = requantI8Vec(dst, acc, corr, scale, bias, outScale)
	}
	tail := dst[i:]
	for j, av := range acc[i:] {
		tail[j] = requantI8(av, corr, scale, bias, outScale)
	}
}

// quantizeI8Vec quantizes the longest multiple-of-16 prefix of src with
// the AVX2 kernel when the CPU has it (the gemmAVX2 gate) and returns its
// length; the caller finishes the rest with the scalar rule.
func quantizeI8Vec(dst []int8, src []float32, scale float32, zp int8) int {
	n := len(src) &^ 15
	if !gemmAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	quantizeI8AVX(&dst[0], &src[0], n, scale, int32(zp))
	return n
}

// requantI8Vec is quantizeI8Vec's counterpart for the snapping epilogue.
func requantI8Vec(dst []float32, acc []int32, corr int32, scale, bias, outScale float32) int {
	n := len(acc) &^ 15
	if !gemmAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	requantI8AVX(&dst[0], &acc[0], n, corr, scale, bias, outScale)
	return n
}
