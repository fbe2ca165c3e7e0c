//go:build !amd64 || noasm

package tensor

// kernI8 without the assembly tier always runs the scalar reference kernel,
// which computes the same exact int32 sums as the AVX2 path.
func kernI8(c []int32, ldc int, ap []int16, bp []int8, kp int, first bool) {
	kernI8x16scalar(c, ldc, ap, bp, kp, first)
}
