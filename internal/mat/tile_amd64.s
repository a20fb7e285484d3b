#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tile4x8AVX2(n, ks int, a0, a1, a2, a3, panel *float64, out *[32]float64)
//
// Y0…Y7 hold the 4×8 tile, two registers of four output elements per left
// row. Each step of k broadcasts a_r[k], multiplies it by the panel's
// eight elements for that k, and adds the rounded products into the
// accumulators: VMULPD then VADDPD, never a fused multiply-add, so every
// lane is Dot's left-to-right sum for its own output element.
TEXT ·tile4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ ks+8(FP), DX
	SHLQ $3, DX
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ a3+40(FP), R11
	MOVQ panel+48(FP), SI
	MOVQ out+56(FP), DI
	XORQ BX, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9

	VBROADCASTSD (R8)(BX*1), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1

	VBROADCASTSD (R9)(BX*1), Y11
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3

	VBROADCASTSD (R10)(BX*1), Y10
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5

	VBROADCASTSD (R11)(BX*1), Y11
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7

	ADDQ DX, BX
	ADDQ $64, SI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET
