//go:build amd64 && !noasm

package tensor

// scaleShiftAVX and clampAVX are the AVX2 tier of elem.go's rules
// (elem_amd64.s). n is a multiple of 8.
//
//go:noescape
func scaleShiftAVX(dst, src *float32, n int, scale, shift float32)

//go:noescape
func clampAVX(dst, src *float32, n int, hi float32)

// scaleShiftVec maps the longest multiple-of-8 prefix of src with the
// AVX2 kernel when the CPU has it and returns its length; the caller
// finishes the rest with the scalar rule.
func scaleShiftVec(dst, src []float32, scale, shift float32) int {
	n := len(src) &^ 7
	if !gemmAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	scaleShiftAVX(&dst[0], &src[0], n, scale, shift)
	return n
}

// clampVec is scaleShiftVec's counterpart for the rectifier.
func clampVec(dst, src []float32, hi float32) int {
	n := len(src) &^ 7
	if !gemmAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	clampAVX(&dst[0], &src[0], n, hi)
	return n
}
