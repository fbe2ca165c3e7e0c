//go:build !amd64 || noasm

package tensor

// gemmAVX2 is always false without the assembly tier (off amd64, or under
// the noasm build tag). It exists so the parity tests that force the
// scalar path (gemmAVX2 = false) build on every target.
var gemmAVX2 = false

func kern4x16(c []float32, ldc int, ap, bp []float32, kb int, first bool) {
	kern4x16scalar(c, ldc, ap, bp, kb, first)
}

func kern1x16(c []float32, ap []float32, astride int, bp []float32, kb int, first bool) {
	kern1x16scalar(c, ap, astride, bp, kb, first)
}

// KernelBackend names the active micro-kernel implementation.
func KernelBackend() string { return "scalar" }
