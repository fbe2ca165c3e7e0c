//go:build !amd64 || noasm

package tensor

// Without the assembly tier the elementwise stages run the scalar rules
// only.

func scaleShiftVec(dst, src []float32, scale, shift float32) int { return 0 }

func clampVec(dst, src []float32, hi float32) int { return 0 }
