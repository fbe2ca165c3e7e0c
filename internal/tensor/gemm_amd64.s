//go:build amd64 && !noasm

#include "textflag.h"

// func gemmKern4x16IndAVX(c *float32, ldc int, ap *float32, ars, aps int, base *float32, offs *int32, kb int, first bool)
//
// 4×16 micro-kernel, the one float32 GEMM kernel: the dst tile lives in
// Y0–Y7 (row r in Y(2r), Y(2r+1)), A is read in place — element (r, p)
// broadcast from ap + 4·(r·ars + p·aps), so row-major and transposed A
// alike need no pack — and B row p is the 16 floats at base+offs[p] —
// one sign-extended 32-bit offset load per k step: a packed nr-panel's
// rows (offs = panelOffs) or the direct conv lowering's tap offsets into
// its zero-bordered image plane. Every element is updated with a
// separate VMULPS+VADDPS pair — never FMA — so each lane's accumulation
// chain rounds exactly like the scalar twin, keeping results
// bit-identical across backends.
TEXT ·gemmKern4x16IndAVX(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ ap+16(FP), R8
	MOVQ base+40(FP), R9
	MOVQ offs+48(FP), DX
	MOVQ kb+56(FP), CX
	SHLQ $2, SI              // ldc in bytes
	MOVQ DI, R11             // row 0
	LEAQ (DI)(SI*1), R12     // row 1
	LEAQ (DI)(SI*2), R13     // row 2
	LEAQ (R12)(SI*2), BX     // row 3
	MOVQ ars+24(FP), SI
	SHLQ $2, SI              // A row stride in bytes
	LEAQ (SI)(SI*2), R14     // three A rows in bytes
	MOVQ aps+32(FP), DI
	SHLQ $2, DI              // A k-stride in bytes
	MOVBLZX first+64(FP), AX
	TESTL AX, AX
	JZ   loadci
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  kloopi
loadci:
	VMOVUPS (R11), Y0
	VMOVUPS 32(R11), Y1
	VMOVUPS (R12), Y2
	VMOVUPS 32(R12), Y3
	VMOVUPS (R13), Y4
	VMOVUPS 32(R13), Y5
	VMOVUPS (BX), Y6
	VMOVUPS 32(BX), Y7
kloopi:
	MOVLQSX (DX), R10
	VMOVUPS (R9)(R10*4), Y8
	VMOVUPS 32(R9)(R10*4), Y9
	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y1, Y1
	VBROADCASTSS (R8)(SI*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y3, Y3
	VBROADCASTSS (R8)(SI*2), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y4, Y4
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y5, Y5
	VBROADCASTSS (R8)(R14*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y6, Y6
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y7, Y7
	ADDQ DI, R8
	ADDQ $4, DX
	DECQ CX
	JNZ  kloopi
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, 32(R12)
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, 32(R13)
	VMOVUPS Y6, (BX)
	VMOVUPS Y7, 32(BX)
	VZEROUPPER
	RET

// func gemmKern1x16IndAVX(c *float32, ap *float32, aps int, base *float32, offs *int32, kb int, first bool)
//
// Single-row twin of gemmKern4x16IndAVX for row remainders and
// single-row (m=1) GEMMs; ap advances by aps floats per k step.
TEXT ·gemmKern1x16IndAVX(SB), NOSPLIT, $0-49
	MOVQ c+0(FP), DI
	MOVQ ap+8(FP), R8
	MOVQ aps+16(FP), SI
	MOVQ base+24(FP), R9
	MOVQ offs+32(FP), DX
	MOVQ kb+40(FP), CX
	SHLQ $2, SI              // stride in bytes
	MOVBLZX first+48(FP), AX
	TESTL AX, AX
	JZ   loadc1i
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	JMP  kloop1i
loadc1i:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
kloop1i:
	MOVLQSX (DX), R10
	VMOVUPS (R9)(R10*4), Y8
	VMOVUPS 32(R9)(R10*4), Y9
	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y1, Y1
	ADDQ SI, R8
	ADDQ $4, DX
	DECQ CX
	JNZ  kloop1i
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func cpuidAVX2() bool
//
// AVX2 requires: CPUID.1 ECX.OSXSAVE[27] and .AVX[28], XCR0 XMM+YMM
// state enabled by the OS, and CPUID.7.0 EBX.AVX2[5].
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   noavx2
	MOVB $1, ret+0(FP)
	RET
noavx2:
	MOVB $0, ret+0(FP)
	RET
