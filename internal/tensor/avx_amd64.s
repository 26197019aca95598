#include "textflag.h"

// Eight-lane AVX tiles for the dense GEMM, the CSR SpMM and the FC
// matrix-vector product. Unlike the SSE2 axpy loops, which load and store
// every output element once per k, a tile keeps its outputs in YMM
// registers for the whole k loop and stores them once. Each lane still
// does what the Go loop in inner.go does to its element, in the same
// order: for the GEMM and SpMM, VMULPS with the B element as its first
// source, then VADDPS with the product as its first source (the VEX
// three-operand form names both sources, so no copy is needed); the
// matrix-vector tile keeps MatVec's own order (see MV_MULADD). There is
// no FMA, so every product is rounded before the add; the operand order
// fixes which payload a NaN·NaN or NaN+NaN returns. The
// last partial tile of a panel runs the same instructions on masked
// loads and stores (VMASKMOVPS), which neither read nor write a lane
// outside the mask. Every kernel clears the upper YMM state before it
// returns, so SSE code that follows pays no transition penalty.

// avxMask holds 32 all-ones words and then 32 zero words. The eight words
// at byte offset 4·(32−r)+32·q select the lanes of vector q that lie
// below column r of a tile.
DATA avxMask<>+0x00(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x08(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x10(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x18(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x20(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x28(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x30(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x38(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x40(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x48(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x50(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x58(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x60(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x68(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x70(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x78(SB)/8, $0xffffffffffffffff
DATA avxMask<>+0x80(SB)/8, $0
DATA avxMask<>+0x88(SB)/8, $0
DATA avxMask<>+0x90(SB)/8, $0
DATA avxMask<>+0x98(SB)/8, $0
DATA avxMask<>+0xa0(SB)/8, $0
DATA avxMask<>+0xa8(SB)/8, $0
DATA avxMask<>+0xb0(SB)/8, $0
DATA avxMask<>+0xb8(SB)/8, $0
DATA avxMask<>+0xc0(SB)/8, $0
DATA avxMask<>+0xc8(SB)/8, $0
DATA avxMask<>+0xd0(SB)/8, $0
DATA avxMask<>+0xd8(SB)/8, $0
DATA avxMask<>+0xe0(SB)/8, $0
DATA avxMask<>+0xe8(SB)/8, $0
DATA avxMask<>+0xf0(SB)/8, $0
DATA avxMask<>+0xf8(SB)/8, $0
GLOBL avxMask<>(SB), RODATA|NOPTR, $256

// One A row of a k step of the 4×16 tile: B row k is in Y8 (columns
// 0–7) and Y9 (8–15); the row's A value is broadcast into Y10 and
// multiplies both halves into the row's two accumulators.
#define GEMM_ROW(aval, acc0, acc1) \
	VBROADCASTSS aval, Y10; \
	VMULPS       Y10, Y8, Y11; \
	VADDPS       acc0, Y11, acc0; \
	VMULPS       Y10, Y9, Y11; \
	VADDPS       acc1, Y11, acc1

// The four A rows of one k step, then on to the next k.
#define GEMM_STEP \
	GEMM_ROW((AX), Y0, Y1); \
	GEMM_ROW((AX)(R9*1), Y2, Y3); \
	GEMM_ROW((AX)(R9*2), Y4, Y5); \
	GEMM_ROW((AX)(R13*1), Y6, Y7); \
	ADDQ $4, AX; \
	ADDQ R10, BX

// func gemmTile4AVX(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, w int)
//
// For r < 4 and j < w: c[r·ldc+j] += Σ_{kk<k} a[r·lda+kk]·b[kk·ldb+j],
// summed in ascending kk from the value c holds. The w columns run as
// 4×16 tiles, the last one masked.
TEXT ·gemmTile4AVX(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $2, R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	SHLQ $2, R9
	MOVQ b_base+64(FP), DX
	MOVQ ldb+88(FP), R10
	SHLQ $2, R10
	MOVQ k+96(FP), CX
	MOVQ w+104(FP), R11
	LEAQ (R8)(R8*2), R12 // 3·ldc bytes
	LEAQ (R9)(R9*2), R13 // 3·lda bytes

gemmtile:
	CMPQ    R11, $16
	JLT     gemmtail
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (DI)(R8*2), Y4
	VMOVUPS 32(DI)(R8*2), Y5
	VMOVUPS (DI)(R12*1), Y6
	VMOVUPS 32(DI)(R12*1), Y7
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    CX, R14
	TESTQ   R14, R14
	JZ      gemmstore

gemmloop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	GEMM_STEP
	DECQ    R14
	JNZ     gemmloop

gemmstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y5, 32(DI)(R8*2)
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $16, R11
	JMP     gemmtile

gemmtail:
	TESTQ      R11, R11
	JZ         gemmdone
	LEAQ       avxMask<>+128(SB), AX
	SHLQ       $2, R11
	SUBQ       R11, AX
	VMOVUPS    (AX), Y12
	VMOVUPS    32(AX), Y13
	VMASKMOVPS (DI), Y12, Y0
	VMASKMOVPS 32(DI), Y13, Y1
	VMASKMOVPS (DI)(R8*1), Y12, Y2
	VMASKMOVPS 32(DI)(R8*1), Y13, Y3
	VMASKMOVPS (DI)(R8*2), Y12, Y4
	VMASKMOVPS 32(DI)(R8*2), Y13, Y5
	VMASKMOVPS (DI)(R12*1), Y12, Y6
	VMASKMOVPS 32(DI)(R12*1), Y13, Y7
	MOVQ       SI, AX
	MOVQ       DX, BX
	TESTQ      CX, CX
	JZ         gemmtailstore

gemmtailloop:
	VMASKMOVPS (BX), Y12, Y8
	VMASKMOVPS 32(BX), Y13, Y9
	GEMM_STEP
	DECQ       CX
	JNZ        gemmtailloop

gemmtailstore:
	VMASKMOVPS Y0, Y12, (DI)
	VMASKMOVPS Y1, Y13, 32(DI)
	VMASKMOVPS Y2, Y12, (DI)(R8*1)
	VMASKMOVPS Y3, Y13, 32(DI)(R8*1)
	VMASKMOVPS Y4, Y12, (DI)(R8*2)
	VMASKMOVPS Y5, Y13, 32(DI)(R8*2)
	VMASKMOVPS Y6, Y12, (DI)(R12*1)
	VMASKMOVPS Y7, Y13, 32(DI)(R12*1)

gemmdone:
	VZEROUPPER
	RET

// The start of one nonzero of the 1×32 tile: BX is pointed at its B row
// and Y8 holds its broadcast value.
#define SPMM_NONZERO \
	MOVLQSX      (R8)(AX*4), BX; \
	IMULQ        R10, BX; \
	ADDQ         DX, BX; \
	VBROADCASTSS (SI)(AX*4), Y8

// With eight B values loaded into v: v = v·Y8, then acc = v + acc.
#define SPMM_MULADD(v, acc) \
	VMULPS Y8, v, v; \
	VADDPS acc, v, acc

// func spmmRowAVX(c, b []float32, ldb int, val []float32, col []int32)
//
// For j < len(c): c[j] += Σ_p val[p]·b[col[p]·ldb+j], summed in ascending
// p from the value c holds. The columns run as 1×32 tiles, the last one
// masked.
TEXT ·spmmRowAVX(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), R11
	MOVQ b_base+24(FP), DX
	MOVQ ldb+48(FP), R10
	SHLQ $2, R10
	MOVQ val_base+56(FP), SI
	MOVQ val_len+64(FP), CX
	MOVQ col_base+80(FP), R8

spmmtile:
	CMPQ    R11, $32
	JLT     spmmtail
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      spmmstore

spmmloop:
	SPMM_NONZERO
	VMOVUPS     (BX), Y4
	SPMM_MULADD(Y4, Y0)
	VMOVUPS     32(BX), Y5
	SPMM_MULADD(Y5, Y1)
	VMOVUPS     64(BX), Y6
	SPMM_MULADD(Y6, Y2)
	VMOVUPS     96(BX), Y7
	SPMM_MULADD(Y7, Y3)
	INCQ        AX
	CMPQ        AX, CX
	JLT  spmmloop

spmmstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, R11
	JMP     spmmtile

spmmtail:
	TESTQ      R11, R11
	JZ         spmmdone
	LEAQ       avxMask<>+128(SB), AX
	SHLQ       $2, R11
	SUBQ       R11, AX
	VMOVUPS    (AX), Y12
	VMOVUPS    32(AX), Y13
	VMOVUPS    64(AX), Y14
	VMOVUPS    96(AX), Y15
	VMASKMOVPS (DI), Y12, Y0
	VMASKMOVPS 32(DI), Y13, Y1
	VMASKMOVPS 64(DI), Y14, Y2
	VMASKMOVPS 96(DI), Y15, Y3
	XORQ       AX, AX
	TESTQ      CX, CX
	JZ         spmmtailstore

spmmtailloop:
	SPMM_NONZERO
	VMASKMOVPS  (BX), Y12, Y4
	SPMM_MULADD(Y4, Y0)
	VMASKMOVPS  32(BX), Y13, Y5
	SPMM_MULADD(Y5, Y1)
	VMASKMOVPS  64(BX), Y14, Y6
	SPMM_MULADD(Y6, Y2)
	VMASKMOVPS  96(BX), Y15, Y7
	SPMM_MULADD(Y7, Y3)
	INCQ        AX
	CMPQ        AX, CX
	JLT  spmmtailloop

spmmtailstore:
	VMASKMOVPS Y0, Y12, (DI)
	VMASKMOVPS Y1, Y13, 32(DI)
	VMASKMOVPS Y2, Y14, 64(DI)
	VMASKMOVPS Y3, Y15, 96(DI)

spmmdone:
	VZEROUPPER
	RET

// The matrix-vector tile's lanes are eight consecutive rows of W, not
// eight columns: lane r sums row r in ascending j from +0, as MatVec's Go
// loop does, so no lane ever adds out of order. SI points at rows 0–3 of
// the tile's next eight columns and R11 at rows 4–7; R8 is ldw in bytes
// and R9 three times that. MV_LOAD4(off) loads four columns of the
// eight rows at byte offset off: each of rows 0–3 into the low half of
// Y0–Y3 and row r+4 into the high half of row r's register. It then
// transposes each half as a 4×4 block (VUNPCKLPS/VUNPCKHPS, then
// VSHUFPS), leaving column off/4+c, W[0..7][c], in Yc for c < 4.
#define MV_LOAD4(off) \
	VMOVUPS     off(SI), X0; \
	VINSERTF128 $1, off(R11), Y0, Y0; \
	VMOVUPS     off(SI)(R8*1), X1; \
	VINSERTF128 $1, off(R11)(R8*1), Y1, Y1; \
	VMOVUPS     off(SI)(R8*2), X2; \
	VINSERTF128 $1, off(R11)(R8*2), Y2, Y2; \
	VMOVUPS     off(SI)(R9*1), X3; \
	VINSERTF128 $1, off(R11)(R9*1), Y3, Y3; \
	VUNPCKLPS   Y1, Y0, Y4; \
	VUNPCKHPS   Y1, Y0, Y5; \
	VUNPCKLPS   Y3, Y2, Y6; \
	VUNPCKHPS   Y3, Y2, Y7; \
	VSHUFPS     $0x44, Y6, Y4, Y0; \
	VSHUFPS     $0xee, Y6, Y4, Y1; \
	VSHUFPS     $0x44, Y7, Y5, Y2; \
	VSHUFPS     $0xee, Y7, Y5, Y3

// acc += col · x[j], with x[j] broadcast from xj into tmp and the product
// rounded in prod before the add. The go1.24 amd64 code of MatVec's loop
// is MULSS X4, X5 with W in X5, then ADDSS X5, X0 into the sum: W is the
// first source of the multiply and the sum the first source of the add,
// and so they are here. That order fixes which payload a NaN·NaN product
// or a NaN+NaN sum returns.
#define MV_MULADD(col, xj, tmp, prod, acc) \
	VBROADCASTSS xj, tmp; \
	VMULPS       tmp, col, prod; \
	VADDPS       prod, acc, acc

// Four columns at byte offset off for the image at AX, summed into Y14.
#define MV_STEP_X0(off) \
	MV_LOAD4(off); \
	MV_MULADD(Y0, off(AX), Y8, Y9, Y14); \
	MV_MULADD(Y1, off+4(AX), Y8, Y9, Y14); \
	MV_MULADD(Y2, off+8(AX), Y8, Y9, Y14); \
	MV_MULADD(Y3, off+12(AX), Y8, Y9, Y14)

// Four columns at byte offset off for the images at AX and BX, summed
// into Y14 and Y15.
#define MV_STEP_X01(off) \
	MV_LOAD4(off); \
	MV_MULADD(Y0, off(AX), Y8, Y9, Y14); \
	MV_MULADD(Y0, off(BX), Y10, Y11, Y15); \
	MV_MULADD(Y1, off+4(AX), Y8, Y9, Y14); \
	MV_MULADD(Y1, off+4(BX), Y10, Y11, Y15); \
	MV_MULADD(Y2, off+8(AX), Y8, Y9, Y14); \
	MV_MULADD(Y2, off+8(BX), Y10, Y11, Y15); \
	MV_MULADD(Y3, off+12(AX), Y8, Y9, Y14); \
	MV_MULADD(Y3, off+12(BX), Y10, Y11, Y15)

// func matVecTile8AVX(s *[16]float32, w []float32, ldw int, x0, x1 []float32, k int)
//
// For r < 8: s[r] = Σ_{j<k} w[r·ldw+j]·x0[j] and, when x1 is not empty,
// s[8+r] = Σ_{j<k} w[r·ldw+j]·x1[j], each summed in ascending j from +0.
// With x1 empty, s[8:16] is set to +0. k is a multiple of 8.
TEXT ·matVecTile8AVX(SB), NOSPLIT, $0-96
	MOVQ   s+0(FP), DI
	MOVQ   w_base+8(FP), SI
	MOVQ   ldw+32(FP), R8
	SHLQ   $2, R8
	LEAQ   (R8)(R8*2), R9 // 3·ldw bytes
	LEAQ   (SI)(R8*4), R11 // row 4
	MOVQ   x0_base+40(FP), AX
	MOVQ   x1_base+64(FP), BX
	MOVQ   x1_len+72(FP), DX
	MOVQ   k+88(FP), CX
	SHRQ   $3, CX
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	TESTQ  CX, CX
	JZ     mvstore
	TESTQ  DX, DX
	JZ     mvone

mvtwo:
	MV_STEP_X01(0)
	MV_STEP_X01(16)
	ADDQ $32, SI
	ADDQ $32, R11
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  mvtwo
	JMP  mvstore

mvone:
	MV_STEP_X0(0)
	MV_STEP_X0(16)
	ADDQ $32, SI
	ADDQ $32, R11
	ADDQ $32, AX
	DECQ CX
	JNZ  mvone

mvstore:
	VMOVUPS Y14, (DI)
	VMOVUPS Y15, 32(DI)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
