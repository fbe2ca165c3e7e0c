//go:build !amd64 || noasm

package tensor

// Without the assembly tier (off amd64, or under the noasm build tag)
// the gate is off and every kernel runs its scalar twin. gemmAVX2 stays a
// variable so the tests that force the scalar path build on every
// target; the stubs below are unreachable behind it.

var gemmAVX2 = false

func noAsm() { panic("tensor: no assembly tier in this build") }

func gemmKern4x16IndAVX(c *float32, ldc int, ap *float32, ars, aps int, base *float32, offs *int32, kb int, first bool) {
	noAsm()
}
func gemmKern1x16IndAVX(c *float32, ap *float32, aps int, base *float32, offs *int32, kb int, first bool) {
	noAsm()
}
func gemmKernI8IndAVX(c *int32, ldc int, ap *int16, base *int8, offs *int32, kp int, first bool) {
	noAsm()
}
func scaleShiftAVX(dst, src *float32, n int, scale, shift float32)          { noAsm() }
func clampAVX(dst, src *float32, n int, hi float32)                         { noAsm() }
func quantizeI8AVX(dst *int8, src *float32, n int, scale float32, zp int32) { noAsm() }
func requantI8AVX(dst *float32, acc *int32, n int, corr int32, scale, bias, outScale float32) {
	noAsm()
}
