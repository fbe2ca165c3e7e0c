//go:build !amd64 || noasm

package tensor

// Without the assembly tier the int8 elementwise passes run the scalar rule
// only.

func quantizeI8Vec(dst []int8, src []float32, scale float32, zp int8) int { return 0 }

func requantI8Vec(dst []float32, acc []int32, corr int32, scale, bias, outScale float32) int {
	return 0
}
