//go:build amd64 && !noasm

package tensor

// gemmKernI8AVX is the AVX2 VPMADDWD micro-kernel (gemm_i8_amd64.s): a
// 4×16 int32 tile accumulated kp k-pairs deep. A panels are pre-widened
// pair-interleaved int16; B panels are raw row-major int8 codes the
// kernel sign-extends (VPMOVSXBW) and pair-interleaves (VPUNPCKL/HWD)
// in registers.
//
//go:noescape
func gemmKernI8AVX(c *int32, ldc int, ap *int16, bp *int8, kp int, first bool)

// kernI8 dispatches the full 4×16 int8 tile to the AVX2 kernel when the
// CPU supports it (same gemmAVX2 gate as the float32 kernels), else to
// the scalar reference. Both produce identical bits — integer
// accumulation is exact — so the choice is invisible to results.
func kernI8(c []int32, ldc int, ap []int16, bp []int8, kp int, first bool) {
	if gemmAVX2 && kp > 0 {
		gemmKernI8AVX(&c[0], ldc, &ap[0], &bp[0], kp, first)
		return
	}
	kernI8x16scalar(c, ldc, ap, bp, kp, first)
}
