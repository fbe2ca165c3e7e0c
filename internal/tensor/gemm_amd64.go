//go:build amd64 && !noasm

package tensor

//go:noescape
func gemmKern4x16AVX(c *float32, ldc int, ap, bp *float32, kb int, first bool)

//go:noescape
func gemmKern1x16AVX(c *float32, ap *float32, astride int, bp *float32, kb int, first bool)

func cpuidAVX2() bool

// gemmAVX2 selects the assembly micro-kernels. Exported indirectly via
// KernelBackend for diagnostics; the scalar and vector kernels produce
// bit-identical results, so flipping this never changes outputs.
var gemmAVX2 = cpuidAVX2()

func kern4x16(c []float32, ldc int, ap, bp []float32, kb int, first bool) {
	if gemmAVX2 && kb > 0 {
		gemmKern4x16AVX(&c[0], ldc, &ap[0], &bp[0], kb, first)
		return
	}
	kern4x16scalar(c, ldc, ap, bp, kb, first)
}

func kern1x16(c []float32, ap []float32, astride int, bp []float32, kb int, first bool) {
	if gemmAVX2 && kb > 0 {
		gemmKern1x16AVX(&c[0], &ap[0], astride, &bp[0], kb, first)
		return
	}
	kern1x16scalar(c, ap, astride, bp, kb, first)
}

// KernelBackend names the active micro-kernel implementation.
func KernelBackend() string {
	if gemmAVX2 {
		return "avx2"
	}
	return "scalar"
}
