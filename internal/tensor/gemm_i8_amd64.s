//go:build amd64 && !noasm

#include "textflag.h"

// func gemmKernI8IndAVX(c *int32, ldc int, ap *int16, base *int8, offs *int32, kp int, first bool)
//
// 4×16 int8 micro-kernel with int32 accumulation, the one int8 GEMM
// kernel. A panels hold sign-extended int16 in the k-pair-interleaved
// layout of gemm_i8.go: each k-pair contributes one VPBROADCASTD per row
// — the row's adjacent-k pair as a 32-bit unit. B rows k and k+1 of each
// k-pair are the 16 raw codes at base+offs[k] and base+offs[k+1] (two
// sign-extended 32-bit offset loads per k-pair): a packed row-major
// panel's rows (offs = panelOffs) or the direct conv lowering's tap
// offsets into its zero-point-bordered image plane. The kernel widens the
// two rows with VPMOVSXBW and forms the (k, k+1) int16 pairs itself with
// one VPUNPCKLWD/VPUNPCKHWD, so a pack is a pure byte copy and the
// shuffle cost is paid once per 4-row tile instead of once per packed
// element.
//
// VPUNPCK interleaves within 128-bit lanes, so the accumulators hold
// columns in the permuted order: row r's tile lives in Y(2r) = columns
// {0–3, 8–11} and Y(2r+1) = columns {4–7, 12–15}. VPERM2I128 converts
// between that order and natural memory order when the C tile is loaded
// (first=false) and stored — a per-tile cost, not per-k.
//
// VPMADDWD multiplies the int16 pairs and adds them into int32 lanes —
// exactly the two-term sum the scalar twin computes — and VPADDD folds
// them into the accumulators. Integer arithmetic is exact, so this is
// bit-identical to the scalar twin by construction.
TEXT ·gemmKernI8IndAVX(SB), NOSPLIT, $0-49
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ ap+16(FP), R8
	MOVQ base+24(FP), R9
	MOVQ offs+32(FP), DX
	MOVQ kp+40(FP), CX
	SHLQ $2, SI              // ldc in bytes (int32 elements)
	MOVQ DI, R11             // row 0
	LEAQ (DI)(SI*1), R12     // row 1
	LEAQ (DI)(SI*2), R13     // row 2
	LEAQ (R12)(SI*2), BX     // row 3
	MOVBLZX first+48(FP), AX
	TESTL AX, AX
	JZ   loadci
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	JMP  kloopi
loadci:
	VMOVDQU (R11), Y8
	VMOVDQU 32(R11), Y9
	VPERM2I128 $0x20, Y9, Y8, Y0
	VPERM2I128 $0x31, Y9, Y8, Y1
	VMOVDQU (R12), Y8
	VMOVDQU 32(R12), Y9
	VPERM2I128 $0x20, Y9, Y8, Y2
	VPERM2I128 $0x31, Y9, Y8, Y3
	VMOVDQU (R13), Y8
	VMOVDQU 32(R13), Y9
	VPERM2I128 $0x20, Y9, Y8, Y4
	VPERM2I128 $0x31, Y9, Y8, Y5
	VMOVDQU (BX), Y8
	VMOVDQU 32(BX), Y9
	VPERM2I128 $0x20, Y9, Y8, Y6
	VPERM2I128 $0x31, Y9, Y8, Y7
kloopi:
	MOVLQSX (DX), R10
	MOVLQSX 4(DX), AX
	VPMOVSXBW (R9)(R10*1), Y8 // B row k: 16 int8 → int16
	VPMOVSXBW (R9)(AX*1), Y9  // B row k+1
	VPUNPCKLWD Y9, Y8, Y12    // (k, k+1) pairs, columns {0–3, 8–11}
	VPUNPCKHWD Y9, Y8, Y13    // (k, k+1) pairs, columns {4–7, 12–15}
	VPBROADCASTD (R8), Y10    // row 0's (k, k+1) int16 pair
	VPMADDWD Y12, Y10, Y11
	VPADDD Y11, Y0, Y0
	VPMADDWD Y13, Y10, Y11
	VPADDD Y11, Y1, Y1
	VPBROADCASTD 4(R8), Y10   // row 1
	VPMADDWD Y12, Y10, Y11
	VPADDD Y11, Y2, Y2
	VPMADDWD Y13, Y10, Y11
	VPADDD Y11, Y3, Y3
	VPBROADCASTD 8(R8), Y10   // row 2
	VPMADDWD Y12, Y10, Y11
	VPADDD Y11, Y4, Y4
	VPMADDWD Y13, Y10, Y11
	VPADDD Y11, Y5, Y5
	VPBROADCASTD 12(R8), Y10  // row 3
	VPMADDWD Y12, Y10, Y11
	VPADDD Y11, Y6, Y6
	VPMADDWD Y13, Y10, Y11
	VPADDD Y11, Y7, Y7
	ADDQ $16, R8              // one k-pair of the A panel (8 int16)
	ADDQ $8, DX               // two tap offsets
	DECQ CX
	JNZ  kloopi
	VPERM2I128 $0x20, Y1, Y0, Y8
	VPERM2I128 $0x31, Y1, Y0, Y9
	VMOVDQU Y8, (R11)
	VMOVDQU Y9, 32(R11)
	VPERM2I128 $0x20, Y3, Y2, Y8
	VPERM2I128 $0x31, Y3, Y2, Y9
	VMOVDQU Y8, (R12)
	VMOVDQU Y9, 32(R12)
	VPERM2I128 $0x20, Y5, Y4, Y8
	VPERM2I128 $0x31, Y5, Y4, Y9
	VMOVDQU Y8, (R13)
	VMOVDQU Y9, 32(R13)
	VPERM2I128 $0x20, Y7, Y6, Y8
	VPERM2I128 $0x31, Y7, Y6, Y9
	VMOVDQU Y8, (BX)
	VMOVDQU Y9, 32(BX)
	VZEROUPPER
	RET
