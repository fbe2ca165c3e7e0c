//go:build amd64 && !noasm

#include "textflag.h"

// The AVX2 elementwise tier of the int8 backend: the rounding rule of
// quant_i8.go, 16 lanes per iteration in two independent 8-lane chains
// (VDIVPS is the long-latency step). Every lane runs the scalar
// sequence — divide, add copysign(0.5, q), truncate, add zp, clamp — with
// the same IEEE operations in the same order, so results are the scalar
// helpers' bits: VCVTTPS2DQ returns MinInt32 for NaN and out-of-range
// inputs exactly as Go's CVTTSS2SL does, and VPADDD/VPSUBD wrap as Go's
// int32 arithmetic does.

// ROUNDCLAMP rounds the quotients in Y0/Y1 half away from zero,
// truncates them to int32 and leaves the codes, clamped to ±127 after
// adding the zero-points in Y14, in Y0/Y1. Constants: Y10 sign mask, Y11
// 0.5, Y12 127, Y13 -127; Y2/Y3 are scratch.
#define ROUNDCLAMP \
	VANDPS     Y10, Y0, Y2; \
	VANDPS     Y10, Y1, Y3; \
	VORPS      Y11, Y2, Y2; \
	VORPS      Y11, Y3, Y3; \
	VADDPS     Y2, Y0, Y0; \
	VADDPS     Y3, Y1, Y1; \
	VCVTTPS2DQ Y0, Y0; \
	VCVTTPS2DQ Y1, Y1; \
	VPADDD     Y14, Y0, Y0; \
	VPADDD     Y14, Y1, Y1; \
	VPMINSD    Y12, Y0, Y0; \
	VPMINSD    Y12, Y1, Y1; \
	VPMAXSD    Y13, Y0, Y0; \
	VPMAXSD    Y13, Y1, Y1

#define CONSTANTS \
	MOVL         $0x80000000, AX; \
	VMOVD        AX, X10; \
	VPBROADCASTD X10, Y10; \
	MOVL         $0x3f000000, AX; \
	VMOVD        AX, X11; \
	VPBROADCASTD X11, Y11; \
	MOVL         $127, AX; \
	VMOVD        AX, X12; \
	VPBROADCASTD X12, Y12; \
	MOVL         $-127, AX; \
	VMOVD        AX, X13; \
	VPBROADCASTD X13, Y13

// func quantizeI8AVX(dst *int8, src *float32, n int, scale float32, zp int32)
//
// dst[i] = clamp(int32(q + copysign(0.5, q)) + zp, -127, 127), q = src[i]/scale,
// for n a multiple of 16. The 16 clamped int32 codes of an iteration
// narrow to bytes with VPACKSSDW + VPACKSSWB (no saturation can occur
// after the clamp); VPERMQ undoes the first pack's per-lane interleave.
TEXT ·quantizeI8AVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y9
	MOVL         zp+28(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	CONSTANTS
	SHRQ         $4, CX
	JZ           qdone

qloop:
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VDIVPS       Y9, Y0, Y0
	VDIVPS       Y9, Y1, Y1
	ROUNDCLAMP
	VPACKSSDW    Y1, Y0, Y0       // int16: a0–3 b0–3 | a4–7 b4–7
	VPERMQ       $0xD8, Y0, Y0    // a0–7 | b0–7
	VEXTRACTI128 $1, Y0, X1
	VPACKSSWB    X1, X0, X0       // a0–7 b0–7 as bytes
	VMOVDQU      X0, (DI)
	ADDQ         $64, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          qloop

qdone:
	VZEROUPPER
	RET

// func requantI8AVX(dst *float32, acc *int32, n int, corr int32, scale, bias, outScale float32)
//
// The int8 layers' epilogue with the output snap fused in, for n a
// multiple of 16: v = float32(acc[i]−corr)·scale + bias, then
// dst[i] = float32(clamp(int32(q + copysign(0.5, q)), -127, 127))·outScale
// with q = v/outScale — the fold and quant_i8.go's rule (zero-point 0)
// without the round trip through memory between them.
TEXT ·requantI8AVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         corr+24(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VBROADCASTSS scale+28(FP), Y7
	VBROADCASTSS bias+32(FP), Y8
	VBROADCASTSS outScale+36(FP), Y9
	VPXOR        Y14, Y14, Y14    // output grid is symmetric: zp 0
	CONSTANTS
	SHRQ         $4, CX
	JZ           rdone

rloop:
	VMOVDQU    (SI), Y0
	VMOVDQU    32(SI), Y1
	VPSUBD     Y15, Y0, Y0        // acc − corr
	VPSUBD     Y15, Y1, Y1
	VCVTDQ2PS  Y0, Y0
	VCVTDQ2PS  Y1, Y1
	VMULPS     Y7, Y0, Y0         // · scale
	VMULPS     Y7, Y1, Y1
	VADDPS     Y8, Y0, Y0         // + bias
	VADDPS     Y8, Y1, Y1
	VDIVPS     Y9, Y0, Y0         // / outScale
	VDIVPS     Y9, Y1, Y1
	ROUNDCLAMP
	VCVTDQ2PS  Y0, Y0
	VCVTDQ2PS  Y1, Y1
	VMULPS     Y9, Y0, Y0         // code · outScale
	VMULPS     Y9, Y1, Y1
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	ADDQ       $64, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        rloop

rdone:
	VZEROUPPER
	RET
