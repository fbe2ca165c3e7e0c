//go:build amd64 && !noasm

#include "textflag.h"

// The AVX2 elementwise tier of the float32 stages both backends share:
// eval BatchNorm's per-channel affine map and the (clipped) rectifier,
// 8 lanes per iteration. Each lane runs the scalar rule of elem.go with
// the same IEEE operations in the same order and the same operand in the
// first-source slot, so results are the scalar rule's bits, NaN payloads
// included.

// func scaleShiftAVX(dst, src *float32, n int, scale, shift float32)
//
// dst[i] = src[i]·scale + shift for n a multiple of 8: VMULPS then VADDPS,
// never an FMA (a fused multiply-add rounds once, the scalar rule twice).
// src[i] is the first source of the multiply and the product the first
// source of the add, as in the compiled scalar loop, so when two NaNs
// meet the same one propagates.
TEXT ·scaleShiftAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y1
	VBROADCASTSS shift+28(FP), Y2
	SHRQ         $3, CX
	JZ           ssdone

ssloop:
	VMOVUPS (SI), Y0
	VMULPS  Y1, Y0, Y0 // src · scale
	VADDPS  Y2, Y0, Y0 // + shift
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     ssloop

ssdone:
	VZEROUPPER
	RET

// func clampAVX(dst, src *float32, n int, hi float32)
//
// dst[i] = min(max(src[i], 0), hi) with the scalar rule's semantics —
// if v < 0 { v = 0 }; if v > hi { v = hi } — for n a multiple of 8.
// VMAXPS and VMINPS return their second source when the first comparison
// fails: on a NaN in either operand and on a ±0 tie. With v as the second
// source (Go operand order: VMAXPS Yv, Yzero, Ydst) −0 and NaNs of either
// sign and any payload pass through both steps unchanged, and only
// v < 0 becomes +0 and v > hi becomes hi. hi = +Inf is ReLU, hi = 6 ReLU6.
TEXT ·clampAVX(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS hi+24(FP), Y2
	VXORPS       Y1, Y1, Y1
	SHRQ         $3, CX
	JZ           cdone

cloop:
	VMOVUPS (SI), Y0
	VMAXPS  Y0, Y1, Y0 // 0 > v ? 0 : v
	VMINPS  Y0, Y2, Y0 // hi < v ? hi : v
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     cloop

cdone:
	VZEROUPPER
	RET
