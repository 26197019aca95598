#include "textflag.h"

// SSE2 versions of the Go loops in inner.go. Each lane does what the
// scalar loop does per element, with the same operand order: MULPS with
// the B element as first operand, then ADDPS with the product as first
// operand. There is no FMA, so every product is rounded before the add,
// exactly as the Go compiler's MULSS/ADDSS sequence rounds it; the
// operand order also fixes which payload a NaN·NaN or NaN+NaN returns.
// Elements past the last multiple of four run through the same
// instructions in their scalar form (MULSS/ADDSS/MAXSS).

// func axpy4SSE(bk, c0, c1, c2, c3 []float32, av0, av1, av2, av3 float32)
TEXT ·axpy4SSE(SB), NOSPLIT, $0-136
	MOVQ   bk_base+0(FP), SI
	MOVQ   bk_len+8(FP), CX
	MOVQ   c0_base+24(FP), DI
	MOVQ   c1_base+48(FP), R8
	MOVQ   c2_base+72(FP), R9
	MOVQ   c3_base+96(FP), R10
	MOVSS  av0+120(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  av1+124(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  av2+128(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  av3+132(FP), X3
	SHUFPS $0x00, X3, X3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     axpy4tail

axpy4loop:
	MOVUPS (SI)(AX*4), X4
	MOVAPS X4, X5
	MULPS  X0, X5
	MOVUPS (DI)(AX*4), X6
	ADDPS  X6, X5
	MOVUPS X5, (DI)(AX*4)
	MOVAPS X4, X7
	MULPS  X1, X7
	MOVUPS (R8)(AX*4), X8
	ADDPS  X8, X7
	MOVUPS X7, (R8)(AX*4)
	MOVAPS X4, X9
	MULPS  X2, X9
	MOVUPS (R9)(AX*4), X10
	ADDPS  X10, X9
	MOVUPS X9, (R9)(AX*4)
	MULPS  X3, X4
	MOVUPS (R10)(AX*4), X11
	ADDPS  X11, X4
	MOVUPS X4, (R10)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    axpy4loop

axpy4tail:
	CMPQ  AX, CX
	JGE   axpy4done
	MOVSS (SI)(AX*4), X4
	MOVSS X4, X5
	MULSS X0, X5
	ADDSS (DI)(AX*4), X5
	MOVSS X5, (DI)(AX*4)
	MOVSS X4, X5
	MULSS X1, X5
	ADDSS (R8)(AX*4), X5
	MOVSS X5, (R8)(AX*4)
	MOVSS X4, X5
	MULSS X2, X5
	ADDSS (R9)(AX*4), X5
	MOVSS X5, (R9)(AX*4)
	MULSS X3, X4
	ADDSS (R10)(AX*4), X4
	MOVSS X4, (R10)(AX*4)
	INCQ  AX
	JMP   axpy4tail

axpy4done:
	RET

// func axpy1SSE(bk, c []float32, av float32)
TEXT ·axpy1SSE(SB), NOSPLIT, $0-52
	MOVQ   bk_base+0(FP), SI
	MOVQ   bk_len+8(FP), CX
	MOVQ   c_base+24(FP), DI
	MOVSS  av+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     axpy1tail

axpy1loop:
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X2
	ADDPS  X2, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    axpy1loop

axpy1tail:
	CMPQ  AX, CX
	JGE   axpy1done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	ADDSS (DI)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   axpy1tail

axpy1done:
	RET

// func reluInPlace(s []float32)
//
// MAXPS returns its second (source) operand when the operands compare
// equal or either is NaN. With zero as the first (destination) operand,
// max(0, v) is 0 only when 0 > v, and v otherwise: −0 and NaN are kept,
// exactly as `if v < 0 { v = 0 }` keeps them.
TEXT ·reluInPlace(SB), NOSPLIT, $0-24
	MOVQ   s_base+0(FP), DI
	MOVQ   s_len+8(FP), CX
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     relutail

reluloop:
	MOVUPS (DI)(AX*4), X0
	XORPS  X1, X1
	MAXPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    reluloop

relutail:
	CMPQ  AX, CX
	JGE   reludone
	MOVSS (DI)(AX*4), X0
	XORPS X1, X1
	MAXSS X0, X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   relutail

reludone:
	RET
