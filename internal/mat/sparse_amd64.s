//go:build !purego

#include "textflag.h"

// The sparse row leaves. As in tile_amd64.s, every lane is its own
// output element and takes its terms in order: VMULPD rounds the
// product, VADDPD adds it, and no fused multiply-add is used.

// func sparseRowsAVX2Asm(out *float64, outStride, w int, starts *int, rows int, src *int32, val, in *float64, inStride int)
//
// Per row, sixteen lanes at a time (Y0…Y3), then four (Y0): the lanes
// start at +0 and stay in registers while all the row's entries are
// added, so each output element is written once. R14 is the lane offset
// in bytes; the row's first entry is reloaded from starts per pass.
TEXT ·sparseRowsAVX2Asm(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ outStride+8(FP), R12
	SHLQ $3, R12
	MOVQ w+16(FP), CX
	SHLQ $3, CX
	MOVQ starts+24(FP), R13
	MOVQ rows+32(FP), DX
	MOVQ src+40(FP), R9
	MOVQ val+48(FP), R8
	MOVQ in+56(FP), SI
	MOVQ inStride+64(FP), R11
	SHLQ $3, R11

row:
	MOVQ 8(R13), R10
	XORQ R14, R14

wide:
	MOVQ   CX, AX
	SUBQ   R14, AX
	CMPQ   AX, $128
	JLT    narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   (R13), BX
	CMPQ   BX, R10
	JGE    widestore

wideterm:
	MOVLQSX      (R9)(BX*4), AX
	IMULQ        R11, AX
	ADDQ         R14, AX
	VBROADCASTSD (R8)(BX*8), Y4
	VMULPD       (SI)(AX*1), Y4, Y5
	VMULPD       32(SI)(AX*1), Y4, Y6
	VMULPD       64(SI)(AX*1), Y4, Y7
	VMULPD       96(SI)(AX*1), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	INCQ         BX
	CMPQ         BX, R10
	JLT          wideterm

widestore:
	VMOVUPD Y0, (DI)(R14*1)
	VMOVUPD Y1, 32(DI)(R14*1)
	VMOVUPD Y2, 64(DI)(R14*1)
	VMOVUPD Y3, 96(DI)(R14*1)
	ADDQ    $128, R14
	JMP     wide

narrow:
	CMPQ   R14, CX
	JGE    nextrow
	VXORPD Y0, Y0, Y0
	MOVQ   (R13), BX
	CMPQ   BX, R10
	JGE    narrowstore

narrowterm:
	MOVLQSX      (R9)(BX*4), AX
	IMULQ        R11, AX
	ADDQ         R14, AX
	VBROADCASTSD (R8)(BX*8), Y4
	VMULPD       (SI)(AX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         BX
	CMPQ         BX, R10
	JLT          narrowterm

narrowstore:
	VMOVUPD Y0, (DI)(R14*1)
	ADDQ    $32, R14
	JMP     narrow

nextrow:
	ADDQ R12, DI
	ADDQ $8, R13
	DECQ DX
	JNZ  row

	VZEROUPPER
	RET

// func outer4AVX2Asm(dst *float64, stride, w, segs int, scales *[4]float64, rb0, rb1, rb2, rb3 *float64)
//
// Per segment the four scales are broadcast to Y12…Y15; then sixteen
// lanes at a time (Y0…Y3), and four at a time (Y0), load d and add
// s₀·rb0, s₁·rb1, s₂·rb2 and s₃·rb3 in that order.
TEXT ·outer4AVX2Asm(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), R12
	SHLQ $3, R12
	MOVQ w+16(FP), CX
	SHLQ $3, CX
	MOVQ segs+24(FP), DX
	MOVQ scales+32(FP), SI
	MOVQ rb0+40(FP), R8
	MOVQ rb1+48(FP), R9
	MOVQ rb2+56(FP), R10
	MOVQ rb3+64(FP), R11

segment:
	VBROADCASTSD (SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	XORQ         BX, BX

wide:
	MOVQ CX, AX
	SUBQ BX, AX
	CMPQ AX, $128
	JLT  narrow

	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3

	VMULPD (R8)(BX*1), Y12, Y4
	VMULPD 32(R8)(BX*1), Y12, Y5
	VMULPD 64(R8)(BX*1), Y12, Y6
	VMULPD 96(R8)(BX*1), Y12, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMULPD (R9)(BX*1), Y13, Y8
	VMULPD 32(R9)(BX*1), Y13, Y9
	VMULPD 64(R9)(BX*1), Y13, Y10
	VMULPD 96(R9)(BX*1), Y13, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3

	VMULPD (R10)(BX*1), Y14, Y4
	VMULPD 32(R10)(BX*1), Y14, Y5
	VMULPD 64(R10)(BX*1), Y14, Y6
	VMULPD 96(R10)(BX*1), Y14, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMULPD (R11)(BX*1), Y15, Y8
	VMULPD 32(R11)(BX*1), Y15, Y9
	VMULPD 64(R11)(BX*1), Y15, Y10
	VMULPD 96(R11)(BX*1), Y15, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3

	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     wide

narrow:
	CMPQ BX, CX
	JGE  next

	VMOVUPD (DI)(BX*1), Y0
	VMULPD  (R8)(BX*1), Y12, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (R9)(BX*1), Y13, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R10)(BX*1), Y14, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  (R11)(BX*1), Y15, Y7
	VADDPD  Y7, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     narrow

next:
	ADDQ R12, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  segment

	VZEROUPPER
	RET
