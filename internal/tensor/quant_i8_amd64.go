//go:build amd64 && !noasm

package tensor

// quantizeI8AVX and requantI8AVX are the AVX2 tier of the int8 backend's
// elementwise passes (quant_i8_amd64.s). n is a multiple of 16. Each runs
// the scalar sequence of quant_i8.go lane by lane — the same operations
// in the same order, no FMA — so its output is bit-identical to
// roundI8/requantI8 by construction.
//
//go:noescape
func quantizeI8AVX(dst *int8, src *float32, n int, scale float32, zp int32)

//go:noescape
func requantI8AVX(dst *float32, acc *int32, n int, corr int32, scale, bias, outScale float32)

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
