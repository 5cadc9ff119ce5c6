// AVX2 kernels of package la. Every lane performs the IEEE-754 multiply
// and the subtract (or add, or divide) the pure-Go loop performs on that
// element, operands in the same order, each rounded on its own: VMULPD
// then VSUBPD / VADDPD (VDIVPD), never a fused multiply-add (doc.go, "Vector kernels";
// ci.sh greps this file for FMA mnemonics). No routine loads or stores
// outside the ranges named by its arguments, and each ends in VZEROUPPER.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One target row of the update at byte offset AX: t <- (t - l0*u) - l1*v
// with u, v in Y0, Y1 (X0, X1 for the one-column form), the row's two
// broadcast multipliers in L0, L1 and T, P scratch.
#define ROW_PD(ROW, L0, L1, T, P) \
	VMOVUPD (ROW)(AX*1), T; \
	VMULPD  Y0, L0, P; \
	VSUBPD  P, T, T; \
	VMULPD  Y1, L1, P; \
	VSUBPD  P, T, T; \
	VMOVUPD T, (ROW)(AX*1)

#define ROW_SD(ROW, L0, L1, T, P) \
	VMOVSD (ROW)(AX*1), T; \
	VMULSD X0, L0, P; \
	VSUBSD P, T, T; \
	VMULSD X1, L1, P; \
	VSUBSD P, T, T; \
	VMOVSD T, (ROW)(AX*1)

// func update2AVX2(ad []float64, n, k, c, k1, i0, rows int)
//
// Closes pivot pair (k-1, k) for rows i0..i0+rows-1 (rows a positive
// multiple of four) over columns c..k1-1 of the row-major n x n matrix
// ad: a[i][j] <- (a[i][j] - a[i][k-1]*a[k-1][j]) - a[i][k]*a[k][j].
// Four rows share each load of the two pivot rows; columns go four to a
// pass, the (k1-c) mod 4 left over one at a time with the scalar forms.
TEXT ·update2AVX2(SB), NOSPLIT, $0-72
	MOVQ ad_base+0(FP), R12
	MOVQ n+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ c+40(FP), R10
	MOVQ k1+48(FP), R11
	MOVQ i0+56(FP), AX
	MOVQ rows+64(FP), R13
	SHLQ $3, R8                 // R8: row stride in bytes
	SUBQ R10, R11
	SHLQ $3, R11                // R11: bytes of one row's columns c..k1-1
	SHLQ $3, R10                // R10: byte offset of column c
	LEAQ -1(R9), SI
	IMULQ R8, SI
	ADDQ R12, SI
	ADDQ R10, SI                // SI: &a[k-1][c]
	LEAQ (SI)(R8*1), DX         // DX: &a[k][c]
	SHLQ $3, R9
	SUBQ $8, R9
	SUBQ R10, R9                // R9: byte offset of column k-1 from column c
	IMULQ R8, AX
	ADDQ AX, R12
	ADDQ R10, R12               // R12: &a[i0][c]
	MOVQ R11, BX
	ANDQ $~31, BX               // BX: bytes the four-lane body covers
	SHRQ $2, R13                // R13: four-row blocks to go

rows4:
	LEAQ (R12)(R8*1), CX
	LEAQ (R12)(R8*2), DI
	LEAQ (DI)(R8*1), R10        // R12, CX, DI, R10: the four target rows
	VBROADCASTSD (R12)(R9*1), Y8
	VBROADCASTSD 8(R12)(R9*1), Y9
	VBROADCASTSD (CX)(R9*1), Y10
	VBROADCASTSD 8(CX)(R9*1), Y11
	VBROADCASTSD (DI)(R9*1), Y12
	VBROADCASTSD 8(DI)(R9*1), Y13
	VBROADCASTSD (R10)(R9*1), Y14
	VBROADCASTSD 8(R10)(R9*1), Y15
	XORQ AX, AX
	CMPQ AX, BX
	JGE  tail

cols4:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DX)(AX*1), Y1
	ROW_PD(R12, Y8, Y9, Y2, Y6)
	ROW_PD(CX, Y10, Y11, Y3, Y7)
	ROW_PD(DI, Y12, Y13, Y4, Y6)
	ROW_PD(R10, Y14, Y15, Y5, Y7)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  cols4

tail:
	CMPQ AX, R11
	JGE  next

cols1:
	VMOVSD (SI)(AX*1), X0
	VMOVSD (DX)(AX*1), X1
	ROW_SD(R12, X8, X9, X2, X6)
	ROW_SD(CX, X10, X11, X3, X7)
	ROW_SD(DI, X12, X13, X4, X6)
	ROW_SD(R10, X14, X15, X5, X7)
	ADDQ $8, AX
	CMPQ AX, R11
	JLT  cols1

next:
	LEAQ (R12)(R8*4), R12
	DECQ R13
	JNZ  rows4
	VZEROUPPER
	RET

// The three element-wise passes take slices whose common length is a
// positive multiple of four; la.go runs the leftover entries.

// func addScaledAVX2(y, x []float64, w float64)
//
// y[i] = y[i] + w*x[i].
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD w+48(FP), Y0
	SHLQ $3, CX
	XORQ AX, AX

axpy4:
	VMOVUPD (DI)(AX*1), Y1
	VMULPD  (SI)(AX*1), Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy4
	VZEROUPPER
	RET

// func addScaledToAVX2(dst, base, x []float64, w float64)
//
// dst[i] = base[i] + w*x[i].
TEXT ·addScaledToAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ base_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	VBROADCASTSD w+72(FP), Y0
	SHLQ $3, CX
	XORQ AX, AX

axpyto4:
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  (SI)(AX*1), Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpyto4
	VZEROUPPER
	RET

// func fuse3AVX2(dst, a, b, c []float64, wa, wb, wc float64)
//
// dst[i] = (wa*a[i] + wb*b[i]) + wc*c[i].
TEXT ·fuse3AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ c_base+72(FP), BX
	VBROADCASTSD wa+96(FP), Y0
	VBROADCASTSD wb+104(FP), Y1
	VBROADCASTSD wc+112(FP), Y2
	SHLQ $3, CX
	XORQ AX, AX

fuse4:
	VMULPD  (SI)(AX*1), Y0, Y3
	VMULPD  (DX)(AX*1), Y1, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  (BX)(AX*1), Y2, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     fuse4
	VZEROUPPER
	RET

// One q step of a four-row block: broadcast A[q][r] (byte offset OFF from
// R13) into Y10 and add its products with the B vectors to the row's
// accumulators.
#define TN_ROW8(OFF, ACC0, ACC1) \
	VBROADCASTSD OFF(R13), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VADDPD  Y11, ACC0, ACC0; \
	VMULPD  Y9, Y10, Y12; \
	VADDPD  Y12, ACC1, ACC1

#define TN_ROW4(OFF, ACC) \
	VBROADCASTSD OFF(R13), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VADDPD  Y11, ACC, ACC

// func mulTNAVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb, n, k int)
//
// Four rows of C = A^T B: c[r*ldc+j] = sum over q = 0..k-1, in order,
// of a[q*lda+r]*b[q*ldb+j], for r < 4 and j < n (n >= 4, k >= 1). Each
// entry starts at +0 and adds one rounded product per q. Columns go
// eight to a pass (eight accumulators), then four; the n mod 4 columns
// left over are covered by one more four-column pass that ends at
// column n-1, rewriting up to three entries with the bits they already
// hold — so no load or store leaves the block.
TEXT ·mulTNAVX2(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	MOVQ b_base+64(FP), DX
	MOVQ ldb+88(FP), R10
	MOVQ n+96(FP), R11
	MOVQ k+104(FP), R12
	SHLQ $3, R8                 // R8, R9, R10: row strides in bytes
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11                // R11: bytes of one row's n columns
	XORQ AX, AX                 // AX: byte offset of the current column

cols8:
	LEAQ 64(AX), CX
	CMPQ CX, R11
	JGT  tail4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R13                // R13: &a[q][0]
	LEAQ (DX)(AX*1), BX         // BX: &b[q][j]
	MOVQ R12, CX

q8:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	TN_ROW8(0, Y0, Y1)
	TN_ROW8(8, Y2, Y3)
	TN_ROW8(16, Y4, Y5)
	TN_ROW8(24, Y6, Y7)
	ADDQ R9, R13
	ADDQ R10, BX
	DECQ CX
	JNZ  q8
	LEAQ (DI)(AX*1), BX         // BX: &c[r][j]
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ R8, BX
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, 32(BX)
	ADDQ R8, BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	ADDQ R8, BX
	VMOVUPD Y6, (BX)
	VMOVUPD Y7, 32(BX)
	ADDQ $64, AX
	JMP  cols8

tail4:
	CMPQ AX, R11
	JGE  done
	LEAQ 32(AX), CX
	CMPQ CX, R11
	JLE  cols4
	MOVQ R11, AX                // fewer than four left: end the pass at n-1
	SUBQ $32, AX

cols4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R13
	LEAQ (DX)(AX*1), BX
	MOVQ R12, CX

q4:
	VMOVUPD (BX), Y8
	TN_ROW4(0, Y0)
	TN_ROW4(8, Y1)
	TN_ROW4(16, Y2)
	TN_ROW4(24, Y3)
	ADDQ R9, R13
	ADDQ R10, BX
	DECQ CX
	JNZ  q4
	LEAQ (DI)(AX*1), BX
	VMOVUPD Y0, (BX)
	ADDQ R8, BX
	VMOVUPD Y1, (BX)
	ADDQ R8, BX
	VMOVUPD Y2, (BX)
	ADDQ R8, BX
	VMOVUPD Y3, (BX)
	ADDQ $32, AX
	JMP  tail4

done:
	VZEROUPPER
	RET

// func triSolveLanesAVX2(lu, x []float64, n, w int)
//
// The forward then back substitution of TriSolveLanes for w = 4 (Y
// registers, 32-byte entries) or w = 2 (X registers, 16-byte entries),
// n >= 1: lu holds w unit-lower / upper factors interleaved as
// lu[(i*n+j)*w + lane], x the w permuted right-hand sides as
// x[i*w + lane]. Row i of the forward pass is
// x[i] <- (...((x[i] - l[i][0]*x[0]) - l[i][1]*x[1]) ...) - l[i][i-1]*x[i-1],
// row i of the back pass the same over j = i+1..n-1 in ascending j,
// then one divide by u[i][i]: SolveFactored's sequence in every lane.
TEXT ·triSolveLanesAVX2(SB), NOSPLIT, $0-64
	MOVQ lu_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ n+48(FP), R8
	MOVQ w+56(FP), CX
	CMPQ CX, $4
	JNE  lanes2
	SHLQ $5, R8                 // R8: bytes of one factor row, and of x
	MOVQ SI, R10                // R10: &lu[i][0]
	MOVQ $32, R11               // R11: byte offset of x[i], i = 1

fwd4:
	CMPQ R11, R8
	JGE  back4
	ADDQ R8, R10
	VMOVUPD (DI)(R11*1), Y0
	XORQ AX, AX                 // AX: byte offset of x[j] (and l[i][j] in the row)

fwdj4:
	VMOVUPD (R10)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, R11
	JLT  fwdj4
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ $32, R11
	JMP  fwd4

back4:
	SUBQ $32, R11               // R11: x[n-1]; R10 is already &lu[n-1][0]

row4:
	VMOVUPD (DI)(R11*1), Y0
	LEAQ 32(R11), AX
	CMPQ AX, R8
	JGE  div4

backj4:
	VMOVUPD (R10)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, R8
	JLT  backj4

div4:
	VDIVPD  (R10)(R11*1), Y0, Y0
	VMOVUPD Y0, (DI)(R11*1)
	SUBQ R8, R10
	SUBQ $32, R11
	JGE  row4
	VZEROUPPER
	RET

lanes2:
	SHLQ $4, R8
	MOVQ SI, R10
	MOVQ $16, R11

fwd2:
	CMPQ R11, R8
	JGE  back2
	ADDQ R8, R10
	VMOVUPD (DI)(R11*1), X0
	XORQ AX, AX

fwdj2:
	VMOVUPD (R10)(AX*1), X1
	VMULPD  (DI)(AX*1), X1, X1
	VSUBPD  X1, X0, X0
	ADDQ $16, AX
	CMPQ AX, R11
	JLT  fwdj2
	VMOVUPD X0, (DI)(R11*1)
	ADDQ $16, R11
	JMP  fwd2

back2:
	SUBQ $16, R11

row2:
	VMOVUPD (DI)(R11*1), X0
	LEAQ 16(R11), AX
	CMPQ AX, R8
	JGE  div2

backj2:
	VMOVUPD (R10)(AX*1), X1
	VMULPD  (DI)(AX*1), X1, X1
	VSUBPD  X1, X0, X0
	ADDQ $16, AX
	CMPQ AX, R8
	JLT  backj2

div2:
	VDIVPD  (R10)(R11*1), X0, X0
	VMOVUPD X0, (DI)(R11*1)
	SUBQ R8, R10
	SUBQ $16, R11
	JGE  row2
	VZEROUPPER
	RET
