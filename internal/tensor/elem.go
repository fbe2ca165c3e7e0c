package tensor

import (
	"fmt"
	"math"
)

// The float32 elementwise stages both backends share: eval BatchNorm's
// per-channel affine map and the rectifier. Each rule is written once in
// Go (below) and once in AVX2 assembly (elem_amd64.s); the exported
// entry points run the vector kernel over the longest multiple-of-8
// prefix when the CPU has it (the gemmAVX2 gate) and the scalar rule over
// the rest. elem_test.go holds the loops nn ran before as references and
// checks both paths against them bit for bit.

// clamp is `if v < 0 { v = 0 }; if v > hi { v = hi }`: −0, +0 and NaN of
// either sign and any payload pass through unchanged, which matters
// because injected faults produce NaN and Inf routinely. The lower bound
// has no branch on the data — pre-activations are negative about half
// the time, in no pattern a predictor can learn: v < 0 holds exactly when
// the bit pattern lies in (0x80000000, 0xFF800000], i.e. sign set, not
// −0, not NaN, and the integer select compiles to a conditional move.
// The upper bound is rarely taken (never for hi = +Inf).
func clamp(v, hi float32) float32 {
	b := math.Float32bits(v)
	if b-0x80000001 < 0x7F800000 {
		b = 0
	}
	v = math.Float32frombits(b)
	if v > hi {
		v = hi
	}
	return v
}

// ScaleShiftInto writes dst[i] = src[i]·scale + shift, the eval
// BatchNorm2d map of one channel plane. dst and src may be the same slice.
func ScaleShiftInto(dst, src []float32, scale, shift float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ScaleShiftInto length mismatch %d != %d", len(dst), len(src)))
	}
	i := scaleShiftVec(dst, src, scale, shift)
	tail := dst[i:]
	for j, v := range src[i:] {
		// The conversion rounds the product to float32 on its own, which
		// forbids fusing the two operations into an FMA on targets that
		// have one: the AVX2 kernel rounds twice too.
		tail[j] = float32(v*scale) + shift
	}
}

// ReLUInto writes dst[i] = min(max(src[i], 0), hi) with clamp's
// semantics: hi = +Inf is the plain rectifier, a finite hi a clipped one
// (ReLU6 with hi = 6). dst and src may be the same slice.
func ReLUInto(dst, src []float32, hi float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ReLUInto length mismatch %d != %d", len(dst), len(src)))
	}
	i := clampVec(dst, src, hi)
	tail := dst[i:]
	for j, v := range src[i:] {
		tail[j] = clamp(v, hi)
	}
}

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
