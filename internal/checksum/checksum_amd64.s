#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func foldCLMUL(crc uint64, p []byte, keys *[4]uint64) (lo, hi uint64)
//
// The loop of hash/crc32's ieeeCLMUL with CRC-64 multipliers: four 128-bit
// lanes advance 64 bytes a step, then fold into one lane, which then takes
// the remaining 16-byte blocks. Each fold multiplies a lane's low qword by
// the first key of a pair and its high qword by the second, and XORs both
// products into the block it is advanced onto.
TEXT ·foldCLMUL(SB), NOSPLIT, $0-56
	MOVQ crc+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ keys+32(FP), AX

	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64
	JB    fold4

	MOVOU (AX), X0 // x^575, x^511

loop64:
	MOVOA X1, X5
	MOVOA X2, X6
	MOVOA X3, X7
	MOVOA X4, X8

	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x00, X0, X2
	PCLMULQDQ $0x00, X0, X3
	PCLMULQDQ $0x00, X0, X4

	MOVOU (SI), X11
	MOVOU 16(SI), X12
	MOVOU 32(SI), X13
	MOVOU 48(SI), X14

	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8

	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	PXOR X8, X4

	PXOR X11, X1
	PXOR X12, X2
	PXOR X13, X3
	PXOR X14, X4

	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

fold4:
	MOVOU 16(AX), X0 // x^191, x^127

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	CMPQ CX, $16
	JB   done

loop16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       loop16

done:
	MOVQ   X1, lo+40(FP)
	PSRLDQ $8, X1
	MOVQ   X1, hi+48(FP)
	RET
