//go:build !purego

#include "textflag.h"

// func substitute16AVX2Asm(buf, rt *float64, n int)
//
// Forward substitution for sixteen rows at once: buf holds them
// interleaved k-major, so Y0…Y3 are element j of the sixteen rows — four
// independent chains of dependent subtractions. For each j the lanes
// load x[j], subtract x[k]·Rᵀ[j][k] for k < j in order (VMULPD, then
// VSUBPD: never fused), divide by Rᵀ[j][j] and store the solution back
// in place, which is what the one-row loop computes per row.
TEXT ·substitute16AVX2Asm(SB), NOSPLIT, $0-24
	MOVQ buf+0(FP), DI
	MOVQ rt+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, R12
	SHLQ $3, R12
	XORQ DX, DX
	MOVQ DI, R8
	MOVQ SI, R9

row:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	XORQ    BX, BX
	MOVQ    DI, R10
	TESTQ   DX, DX
	JZ      divide

term:
	VBROADCASTSD (R9)(BX*8), Y4
	VMOVUPD      (R10), Y5
	VMOVUPD      32(R10), Y6
	VMOVUPD      64(R10), Y7
	VMOVUPD      96(R10), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $128, R10
	INCQ         BX
	CMPQ         BX, DX
	JLT          term

divide:
	VBROADCASTSD (R9)(DX*8), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, (R8)
	VMOVUPD      Y1, 32(R8)
	VMOVUPD      Y2, 64(R8)
	VMOVUPD      Y3, 96(R8)
	ADDQ         $128, R8
	ADDQ         R12, R9
	INCQ         DX
	CMPQ         DX, CX
	JLT          row

	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 block of doubles in Y0…Y3 (row i in Yi)
// into Y0…Y3 (column i in Yi), through Y4…Y7.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4;        \
	VUNPCKHPD  Y1, Y0, Y5;        \
	VUNPCKLPD  Y3, Y2, Y6;        \
	VUNPCKHPD  Y3, Y2, Y7;        \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func interleave16AVX2Asm(buf, rows *float64, n, n4 int)
//
// Copies elements k < n4 (a multiple of 4) of the sixteen n-element rows
// at rows into buf, k-major: element k of row r to buf[16k+r]. Each pass
// moves a 4×4 block — four rows, four steps of k — by one transpose.
TEXT ·interleave16AVX2Asm(SB), NOSPLIT, $0-32
	MOVQ buf+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ n4+24(FP), DX
	SHLQ $3, CX
	XORQ BX, BX

kstep:
	CMPQ BX, DX
	JGE  idone
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ $4, R10

igroup:
	MOVQ    R8, R11
	VMOVUPD (R11), Y0
	ADDQ    CX, R11
	VMOVUPD (R11), Y1
	ADDQ    CX, R11
	VMOVUPD (R11), Y2
	ADDQ    CX, R11
	VMOVUPD (R11), Y3
	TRANSPOSE4
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 128(R9)
	VMOVUPD Y2, 256(R9)
	VMOVUPD Y3, 384(R9)
	LEAQ    (R8)(CX*4), R8
	ADDQ    $32, R9
	DECQ    R10
	JNZ     igroup

	ADDQ $32, SI
	ADDQ $512, DI
	ADDQ $4, BX
	JMP  kstep

idone:
	VZEROUPPER
	RET

// func deinterleave16AVX2Asm(rows, buf *float64, n, n4 int)
//
// The inverse of interleave16AVX2Asm: buf[16k+r] back to element k of
// row r, for k < n4.
TEXT ·deinterleave16AVX2Asm(SB), NOSPLIT, $0-32
	MOVQ rows+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ n4+24(FP), DX
	SHLQ $3, CX
	XORQ BX, BX

dkstep:
	CMPQ BX, DX
	JGE  ddone
	MOVQ DI, R8
	MOVQ SI, R9
	MOVQ $4, R10

dgroup:
	VMOVUPD (R9), Y0
	VMOVUPD 128(R9), Y1
	VMOVUPD 256(R9), Y2
	VMOVUPD 384(R9), Y3
	TRANSPOSE4
	MOVQ    R8, R11
	VMOVUPD Y0, (R11)
	ADDQ    CX, R11
	VMOVUPD Y1, (R11)
	ADDQ    CX, R11
	VMOVUPD Y2, (R11)
	ADDQ    CX, R11
	VMOVUPD Y3, (R11)
	LEAQ    (R8)(CX*4), R8
	ADDQ    $32, R9
	DECQ    R10
	JNZ     dgroup

	ADDQ $32, DI
	ADDQ $512, SI
	ADDQ $4, BX
	JMP  dkstep

ddone:
	VZEROUPPER
	RET
