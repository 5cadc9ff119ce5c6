// AVX2 kernels of package la (factorLanesBlocked's closing pass also in
// an AVX-512F form on Z registers). Every lane performs the IEEE-754 multiply
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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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
	PCALIGN $64

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

// func triSolveLanesAVX2(lu, x []float64, n, w, ldx int)
//
// The forward then back substitution of TriSolveLanes for w = 4 (Y
// registers, 32-byte entries) or w = 2 (X registers, 16-byte entries),
// n >= 1: lu holds w unit-lower / upper factors interleaved as
// lu[(i*n+j)*w + lane], x the w permuted right-hand sides as
// x[i*ldx + lane]. Row i of the forward pass is
// x[i] <- (...((x[i] - l[i][0]*x[0]) - l[i][1]*x[1]) ...) - l[i][i-1]*x[i-1],
// row i of the back pass the same over j = i+1..n-1 in ascending j,
// then one divide by u[i][i]: SolveFactored's sequence in every lane.
// AX walks a factor row and BX the rows of x in step with it.
TEXT ·triSolveLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ lu_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ n+48(FP), R8
	MOVQ ldx+64(FP), R9
	SHLQ $3, R9                 // R9: bytes between two rows of x
	MOVQ R9, R11                // R11: byte offset of x[i], i = 1
	MOVQ SI, R10                // R10: &lu[i][0]
	CMPQ w+56(FP), $4
	JNE  lanes2
	SHLQ $5, R8                 // R8: bytes of one factor row
	MOVQ $32, R13               // R13: byte offset of column i in a factor row
	PCALIGN $64

fwd4:
	CMPQ R13, R8
	JGE  back4
	ADDQ R8, R10
	VMOVUPD (DI)(R11*1), Y0
	XORQ AX, AX
	XORQ BX, BX
	PCALIGN $64

fwdj4:
	VMOVUPD (R10)(AX*1), Y1
	VMULPD  (DI)(BX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ $32, AX
	ADDQ R9, BX
	CMPQ AX, R13
	JLT  fwdj4
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ $32, R13
	ADDQ R9, R11
	JMP  fwd4

back4:
	SUBQ $32, R13               // row n-1; R10 is already &lu[n-1][0]
	SUBQ R9, R11
	PCALIGN $64

row4:
	VMOVUPD (DI)(R11*1), Y0
	LEAQ 32(R13), AX
	LEAQ (R11)(R9*1), BX
	CMPQ AX, R8
	JGE  div4
	PCALIGN $64

backj4:
	VMOVUPD (R10)(AX*1), Y1
	VMULPD  (DI)(BX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ $32, AX
	ADDQ R9, BX
	CMPQ AX, R8
	JLT  backj4

div4:
	VDIVPD  (R10)(R13*1), Y0, Y0
	VMOVUPD Y0, (DI)(R11*1)
	SUBQ R8, R10
	SUBQ R9, R11
	SUBQ $32, R13
	JGE  row4
	VZEROUPPER
	RET

lanes2:
	SHLQ $4, R8
	MOVQ $16, R13
	PCALIGN $64

fwd2:
	CMPQ R13, R8
	JGE  back2
	ADDQ R8, R10
	VMOVUPD (DI)(R11*1), X0
	XORQ AX, AX
	XORQ BX, BX
	PCALIGN $64

fwdj2:
	VMOVUPD (R10)(AX*1), X1
	VMULPD  (DI)(BX*1), X1, X1
	VSUBPD  X1, X0, X0
	ADDQ $16, AX
	ADDQ R9, BX
	CMPQ AX, R13
	JLT  fwdj2
	VMOVUPD X0, (DI)(R11*1)
	ADDQ $16, R13
	ADDQ R9, R11
	JMP  fwd2

back2:
	SUBQ $16, R13
	SUBQ R9, R11
	PCALIGN $64

row2:
	VMOVUPD (DI)(R11*1), X0
	LEAQ 16(R13), AX
	LEAQ (R11)(R9*1), BX
	CMPQ AX, R8
	JGE  div2
	PCALIGN $64

backj2:
	VMOVUPD (R10)(AX*1), X1
	VMULPD  (DI)(BX*1), X1, X1
	VSUBPD  X1, X0, X0
	ADDQ $16, AX
	ADDQ R9, BX
	CMPQ AX, R8
	JLT  backj2

div2:
	VDIVPD  (R10)(R13*1), X0, X0
	VMOVUPD X0, (DI)(R11*1)
	SUBQ R8, R10
	SUBQ R9, R11
	SUBQ $16, R13
	JGE  row2
	VZEROUPPER
	RET

// b[rows[r+K/8]][lanes] -= ACC for the lane chunk at byte offset R10:
// LD loads and stores T, SUB is the subtract of the chunk's width.
#define FA_STORE(K, ACC, T, LD, SUB) \
	MOVQ  K(BX)(R11*8), DX; \
	IMULQ R9, DX; \
	ADDQ  R10, DX; \
	LD    (DI)(DX*1), T; \
	SUB   ACC, T, T; \
	LD    T, (DI)(DX*1)

// func faceApplyLanesAVX2(b, fb, u []float64, rows []int, w int)
//
// FaceApplyLanes for w >= 2, nf = len(rows) >= 1: per block row r and
// lane l, acc = +0, acc = acc + fb[r][k]*u[k*w + l] for ascending k
// (VMULPD then VADDPD), then b[rows[r]*w + l] = b[...] - acc. Lanes go
// four to a Y register, then two to an X register, then one (the scalar
// forms); within a chunk block rows go four per pass, each in its own
// accumulator and all four sharing each load of u, then one at a time.
// R12 (and R13, two rows on) walk the block rows in step with AX down u,
// so a pass leaves R12 on the next row.
TEXT ·faceApplyLanesAVX2(SB), NOSPLIT, $0-104
	MOVQ b_base+0(FP), DI
	MOVQ rows_base+72(FP), BX
	MOVQ rows_len+80(FP), R8    // R8: nf
	MOVQ w+96(FP), R9
	SHLQ $3, R9                 // R9: bytes between two rows of b and of u
	MOVQ R8, R14
	SHLQ $3, R14                // R14: bytes of one block row
	XORQ R10, R10               // R10: byte offset of the lane chunk
	PCALIGN $64

chunk4:
	LEAQ 32(R10), DX
	CMPQ DX, R9
	JGT  chunk2
	MOVQ fb_base+24(FP), R12
	MOVQ u_base+48(FP), SI
	ADDQ R10, SI                // SI: &u[0][chunk]
	XORQ R11, R11               // R11: block row r
	PCALIGN $64

blk4:
	LEAQ 4(R11), DX
	CMPQ DX, R8
	JGT  one4
	LEAQ (R12)(R14*2), R13
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	PCALIGN $64

blk4k:
	VMOVUPD      (AX), Y4
	VBROADCASTSD (R12), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R12)(R14*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R13), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R13)(R14*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ R9, AX
	DECQ CX
	JNZ  blk4k
	FA_STORE(0, Y0, Y9, VMOVUPD, VSUBPD)
	FA_STORE(8, Y1, Y9, VMOVUPD, VSUBPD)
	FA_STORE(16, Y2, Y9, VMOVUPD, VSUBPD)
	FA_STORE(24, Y3, Y9, VMOVUPD, VSUBPD)
	LEAQ (R13)(R14*1), R12      // &fb[r+4][0]
	ADDQ $4, R11
	JMP  blk4
	PCALIGN $64

one4:
	CMPQ R11, R8
	JGE  next4
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD Y0, Y0, Y0
	PCALIGN $64

one4k:
	VMOVUPD      (AX), Y4
	VBROADCASTSD (R12), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ $8, R12
	ADDQ R9, AX
	DECQ CX
	JNZ  one4k
	FA_STORE(0, Y0, Y9, VMOVUPD, VSUBPD)
	INCQ R11
	JMP  one4

next4:
	ADDQ $32, R10
	JMP  chunk4

chunk2:
	LEAQ 16(R10), DX
	CMPQ DX, R9
	JGT  chunk1
	MOVQ fb_base+24(FP), R12
	MOVQ u_base+48(FP), SI
	ADDQ R10, SI
	XORQ R11, R11
	PCALIGN $64

blk2:
	LEAQ 4(R11), DX
	CMPQ DX, R8
	JGT  one2
	LEAQ (R12)(R14*2), R13
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	PCALIGN $64

blk2k:
	VMOVUPD  (AX), X4
	VMOVDDUP (R12), X5
	VMULPD   X4, X5, X5
	VADDPD   X5, X0, X0
	VMOVDDUP (R12)(R14*1), X6
	VMULPD   X4, X6, X6
	VADDPD   X6, X1, X1
	VMOVDDUP (R13), X7
	VMULPD   X4, X7, X7
	VADDPD   X7, X2, X2
	VMOVDDUP (R13)(R14*1), X8
	VMULPD   X4, X8, X8
	VADDPD   X8, X3, X3
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ R9, AX
	DECQ CX
	JNZ  blk2k
	FA_STORE(0, X0, X9, VMOVUPD, VSUBPD)
	FA_STORE(8, X1, X9, VMOVUPD, VSUBPD)
	FA_STORE(16, X2, X9, VMOVUPD, VSUBPD)
	FA_STORE(24, X3, X9, VMOVUPD, VSUBPD)
	LEAQ (R13)(R14*1), R12
	ADDQ $4, R11
	JMP  blk2
	PCALIGN $64

one2:
	CMPQ R11, R8
	JGE  next2
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD X0, X0, X0
	PCALIGN $64

one2k:
	VMOVUPD  (AX), X4
	VMOVDDUP (R12), X5
	VMULPD   X4, X5, X5
	VADDPD   X5, X0, X0
	ADDQ $8, R12
	ADDQ R9, AX
	DECQ CX
	JNZ  one2k
	FA_STORE(0, X0, X9, VMOVUPD, VSUBPD)
	INCQ R11
	JMP  one2

next2:
	ADDQ $16, R10

chunk1:
	CMPQ R10, R9
	JGE  fadone
	MOVQ fb_base+24(FP), R12
	MOVQ u_base+48(FP), SI
	ADDQ R10, SI
	XORQ R11, R11
	PCALIGN $64

one1:
	CMPQ R11, R8
	JGE  fadone
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD X0, X0, X0
	PCALIGN $64

one1k:
	VMOVSD (AX), X4
	VMOVSD (R12), X5
	VMULSD X4, X5, X5
	VADDSD X5, X0, X0
	ADDQ $8, R12
	ADDQ R9, AX
	DECQ CX
	JNZ  one1k
	FA_STORE(0, X0, X9, VMOVSD, VSUBSD)
	INCQ R11
	JMP  one1

fadone:
	VZEROUPPER
	RET

// func faceApplyLanesPerLaneAVX2(b, fb, u []float64, rows []int, w int)
//
// FaceApplyLanesPerLane for w = 4 (Y registers) or 2 (X registers),
// nf = len(rows) >= 1: per block row r, acc = +0, acc = acc +
// fb[(r*nf+k)*w + lanes]*u[k*w + lanes] for ascending k (VMULPD then
// VADDPD), then b[rows[r]*w + lanes] -= acc. Block rows go four per
// pass, each in its own accumulator and all four sharing each load of u,
// then one at a time. R12 (and R13, two rows on) walk the block rows in
// step with AX down u, so a pass leaves R12 on the next row.
TEXT ·faceApplyLanesPerLaneAVX2(SB), NOSPLIT, $0-104
	MOVQ b_base+0(FP), DI
	MOVQ fb_base+24(FP), R12
	MOVQ u_base+48(FP), SI
	MOVQ rows_base+72(FP), BX
	MOVQ rows_len+80(FP), R8    // R8: nf
	MOVQ w+96(FP), R9
	SHLQ $3, R9                 // R9: bytes of one row of u and b, and of one block entry
	MOVQ R8, R14
	IMULQ R9, R14               // R14: bytes of one block row
	XORQ R10, R10               // FA_STORE's lane chunk: all lanes at once
	XORQ R11, R11               // R11: block row r
	CMPQ R9, $32
	JNE  pl2
	PCALIGN $64

pl4:
	LEAQ 4(R11), DX
	CMPQ DX, R8
	JGT  pl4one
	LEAQ (R12)(R14*2), R13
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	PCALIGN $64

pl4k:
	VMOVUPD (AX), Y4
	VMOVUPD (R12), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VMOVUPD (R12)(R14*1), Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMOVUPD (R13), Y7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y7, Y2, Y2
	VMOVUPD (R13)(R14*1), Y8
	VMULPD  Y4, Y8, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ R9, R12
	ADDQ R9, R13
	ADDQ R9, AX
	DECQ CX
	JNZ  pl4k
	FA_STORE(0, Y0, Y9, VMOVUPD, VSUBPD)
	FA_STORE(8, Y1, Y9, VMOVUPD, VSUBPD)
	FA_STORE(16, Y2, Y9, VMOVUPD, VSUBPD)
	FA_STORE(24, Y3, Y9, VMOVUPD, VSUBPD)
	LEAQ (R13)(R14*1), R12      // &fb[r+4][0]
	ADDQ $4, R11
	JMP  pl4
	PCALIGN $64

pl4one:
	CMPQ R11, R8
	JGE  pldone
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD Y0, Y0, Y0
	PCALIGN $64

pl4onek:
	VMOVUPD (AX), Y4
	VMOVUPD (R12), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ R9, R12
	ADDQ R9, AX
	DECQ CX
	JNZ  pl4onek
	FA_STORE(0, Y0, Y9, VMOVUPD, VSUBPD)
	INCQ R11
	JMP  pl4one
	PCALIGN $64

pl2:
	LEAQ 4(R11), DX
	CMPQ DX, R8
	JGT  pl2one
	LEAQ (R12)(R14*2), R13
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	PCALIGN $64

pl2k:
	VMOVUPD (AX), X4
	VMOVUPD (R12), X5
	VMULPD  X4, X5, X5
	VADDPD  X5, X0, X0
	VMOVUPD (R12)(R14*1), X6
	VMULPD  X4, X6, X6
	VADDPD  X6, X1, X1
	VMOVUPD (R13), X7
	VMULPD  X4, X7, X7
	VADDPD  X7, X2, X2
	VMOVUPD (R13)(R14*1), X8
	VMULPD  X4, X8, X8
	VADDPD  X8, X3, X3
	ADDQ R9, R12
	ADDQ R9, R13
	ADDQ R9, AX
	DECQ CX
	JNZ  pl2k
	FA_STORE(0, X0, X9, VMOVUPD, VSUBPD)
	FA_STORE(8, X1, X9, VMOVUPD, VSUBPD)
	FA_STORE(16, X2, X9, VMOVUPD, VSUBPD)
	FA_STORE(24, X3, X9, VMOVUPD, VSUBPD)
	LEAQ (R13)(R14*1), R12
	ADDQ $4, R11
	JMP  pl2
	PCALIGN $64

pl2one:
	CMPQ R11, R8
	JGE  pldone
	MOVQ SI, AX
	MOVQ R8, CX
	VXORPD X0, X0, X0
	PCALIGN $64

pl2onek:
	VMOVUPD (AX), X4
	VMOVUPD (R12), X5
	VMULPD  X4, X5, X5
	VADDPD  X5, X0, X0
	ADDQ R9, R12
	ADDQ R9, AX
	DECQ CX
	JNZ  pl2onek
	FA_STORE(0, X0, X9, VMOVUPD, VSUBPD)
	INCQ R11
	JMP  pl2one

pldone:
	VZEROUPPER
	RET

DATA lanesOne<>+0(SB)/8, $0x3ff0000000000000
GLOBL lanesOne<>(SB), RODATA|NOPTR, $8

// func addScaledToLanesAVX2(dst []float64, base [][]float64, x, w []float64)
//
// dst[i*len(w) + l] = base[l][i] + w[l]*x[i] for len(w) = 4 (four lanes)
// or 2, len(x) a positive multiple of four: per pass four entries of x
// and of every lane's base, each lane's four products w[l]*x and sums
// base[l] + product formed in one Y register, then the lanes transposed
// into the interleaved layout (VUNPCKLPD / VUNPCKHPD, then VPERM2F128).
TEXT ·addScaledToLanesAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ base_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	MOVQ w_base+72(FP), BX
	SHLQ $3, CX                 // CX: bytes of x and of each base
	XORQ AX, AX                 // AX: byte offset of the entry
	MOVQ 0(R8), R9              // &base[0][0]
	MOVQ 24(R8), R10            // &base[1][0]
	VBROADCASTSD 0(BX), Y12
	VBROADCASTSD 8(BX), Y13
	CMPQ w_len+80(FP), $4
	JNE  form2
	MOVQ 48(R8), R11
	MOVQ 72(R8), R12
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	PCALIGN $64

form4:
	VMOVUPD (SI)(AX*1), Y8
	VMULPD  Y8, Y12, Y0
	VMOVUPD (R9)(AX*1), Y4
	VADDPD  Y0, Y4, Y0
	VMULPD  Y8, Y13, Y1
	VMOVUPD (R10)(AX*1), Y5
	VADDPD  Y1, Y5, Y1
	VMULPD  Y8, Y14, Y2
	VMOVUPD (R11)(AX*1), Y6
	VADDPD  Y2, Y6, Y2
	VMULPD  Y8, Y15, Y3
	VMOVUPD (R12)(AX*1), Y7
	VADDPD  Y3, Y7, Y3
	VUNPCKLPD  Y1, Y0, Y4       // l0[0] l1[0] l0[2] l1[2]
	VUNPCKHPD  Y1, Y0, Y5       // l0[1] l1[1] l0[3] l1[3]
	VUNPCKLPD  Y3, Y2, Y6       // l2[0] l3[0] l2[2] l3[2]
	VUNPCKHPD  Y3, Y2, Y7       // l2[1] l3[1] l2[3] l3[3]
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  form4
	VZEROUPPER
	RET
	PCALIGN $64

form2:
	VMOVUPD (SI)(AX*1), Y8
	VMULPD  Y8, Y12, Y0
	VMOVUPD (R9)(AX*1), Y4
	VADDPD  Y0, Y4, Y0
	VMULPD  Y8, Y13, Y1
	VMOVUPD (R10)(AX*1), Y5
	VADDPD  Y1, Y5, Y1
	VUNPCKLPD  Y1, Y0, Y4       // l0[0] l1[0] l0[2] l1[2]
	VUNPCKHPD  Y1, Y0, Y5       // l0[1] l1[1] l0[3] l1[3]
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  form2
	VZEROUPPER
	RET

// The pivot search of one row: V holds |a[i][k]| of every lane, I the
// row i, and IDX, BEST the best row so far and its |a[i][k]|, seeded with
// the search's first row. A lane takes row i where V is strictly greater
// than BEST (VCMPPD GT_OQ is false when either is a NaN, so a NaN never
// displaces the incumbent); VMAXPD keeps BEST where V is not greater,
// NaNs included, so BEST's chain is one instruction per row. M is
// scratch.
#define SEARCH(V, M, I, IDX, BEST) \
	VCMPPD $0x1e, BEST, V, M; \
	VMAXPD BEST, V, BEST; \
	VBLENDVPD M, I, IDX, IDX

// SEARCH for a loop whose first searched row is not known before it:
// F is all ones on that row (every lane takes it) and zero after.
#define SEARCHF(V, M, F, I, IDX, BEST) \
	VCMPPD $0x1e, BEST, V, M; \
	VORPD F, M, M; \
	VBLENDVPD M, V, BEST, BEST; \
	VBLENDVPD M, I, IDX, IDX; \
	VXORPD F, F, F

// One row of the pass that opens a pair, DX = &a[i][0], R12 the byte
// offset of column k: the multiplier l = a[i][k]*(1/a[k][k]) is stored
// and a[i][k+1] -= l*a[k][k+1] except in the lanes where l == 0 (the
// blend keeps the old value there). Leaves |a[i][k+1]| in Y1 / X1.
#define OPEN4 \
	VMULPD (DX)(R12*1), Y11, Y0; \
	VMOVUPD Y0, (DX)(R12*1); \
	VMOVUPD 32(DX)(R12*1), Y1; \
	VMULPD Y10, Y0, Y2; \
	VSUBPD Y2, Y1, Y2; \
	VCMPPD $0, Y9, Y0, Y3; \
	VBLENDVPD Y3, Y1, Y2, Y1; \
	VMOVUPD Y1, 32(DX)(R12*1); \
	VANDPD Y15, Y1, Y1

#define OPEN2 \
	VMULPD (DX)(R12*1), X11, X0; \
	VMOVUPD X0, (DX)(R12*1); \
	VMOVUPD 16(DX)(R12*1), X1; \
	VMULPD X10, X0, X2; \
	VSUBPD X2, X1, X2; \
	VCMPPD $0, X9, X0, X3; \
	VBLENDVPD X3, X1, X2, X1; \
	VMOVUPD X1, 16(DX)(R12*1); \
	VANDPD X15, X1, X1

// func factorLanesPaired(lu []float64, perm []int, n, w int) int
//
// FactorLanes for w = 4 (Y registers, 32-byte entries) or w = 2 (X
// registers, 16-byte entries), n >= 1, perm already the identity per
// lane; returns 1 if some lane meets a zero pivot column, else 0. Every
// lane runs eliminate's sequence. Steps go in pairs: the step opening a
// pair stores its multipliers and updates column k+1 alone (searching it
// for the next pivot as it goes); the step closing it applies both row
// operations in one pass over each row below, l0 then l1, and searches
// the first column it leaves final for the next pair's pivot. A lane
// whose multiplier is zero keeps its entry (VBLENDVPD), as the scalar
// loop skips the row. Row exchanges are masked blends of the two rows,
// one pass per distinct pivot row; each lane's permutation is swapped in
// place as its row is. FactorLanes takes it below blockedMinN, where a
// step's fixed cost outweighs what factorLanesBlocked saves per entry.
TEXT ·factorLanesPaired(SB), NOSPLIT, $32-72
	MOVQ lu_base+0(FP), SI
	MOVQ perm_base+24(FP), DI
	MOVQ n+48(FP), R8
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ $63, Y15, Y7         // Y7: one per lane, the row step
	VPSRLQ $1, Y15, Y15         // Y15: the |x| mask
	CMPQ w+56(FP), $4
	JNE  lanes2

lanes4:
	MOVQ R8, R9
	SHLQ $5, R9                 // R9: bytes of one row (n entries of 32)
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	// Column 0's pivot search, rows 0..n-1.
	VANDPD (SI), Y15, Y14       // Y14: largest |a[i][k]| so far
	VPXOR Y13, Y13, Y13         // Y13: its row, per lane
	VMOVDQU Y7, Y8              // Y8: the row being searched
	LEAQ (SI)(R9*1), DX
	CMPQ DX, R13
	JGE  step04
	PCALIGN $64

search04:
	VANDPD (DX), Y15, Y1
	SEARCH(Y1, Y2, Y8, Y13, Y14)
	VPADDQ Y7, Y8, Y8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  search04

step04:
	XORQ R10, R10               // R10: step k
	MOVQ SI, R11                // R11: &a[k][0]
	XORQ R12, R12               // R12: byte offset of column k
	PCALIGN $64

step4:
	// Y13 holds step k's pivot rows. Any lane without a non-zero pivot?
	VXORPD Y0, Y0, Y0
	VCMPPD $0, Y0, Y14, Y0
	VMOVMSKPD Y0, AX
	TESTQ AX, AX
	JNZ  singular
	// Exchange rows k and p per lane, unless every lane pivots on k.
	VMOVQ R10, X0
	VPBROADCASTQ X0, Y0
	VPCMPEQQ Y0, Y13, Y0
	VMOVMSKPD Y0, AX
	CMPQ AX, $15
	JEQ  inv4
	VMOVDQU Y13, piv-32(SP)
	LEAQ piv-32(SP), R13
	XORQ BX, BX                 // BX: lane
	XORQ R14, R14               // R14: mask of the lanes below BX
	PCALIGN $64

lane4:
	MOVQ (R13)(BX*8), CX        // CX: the lane's pivot row p
	CMPQ CX, R10
	JEQ  nextlane4
	MOVQ BX, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), AX         // AX: the lane's permutation
	MOVQ (AX)(R10*8), DX
	MOVQ (AX)(CX*8), R12
	MOVQ R12, (AX)(R10*8)
	MOVQ DX, (AX)(CX*8)
	// Lanes sharing p swap in one pass, made by the lowest of them.
	VPBROADCASTQ (R13)(BX*8), Y0
	VPCMPEQQ Y0, Y13, Y0
	VMOVMSKPD Y0, AX
	TESTQ R14, AX
	JNZ  nextlane4
	MOVQ CX, DX
	IMULQ R9, DX
	ADDQ SI, DX                 // DX: &a[p][0]
	XORQ AX, AX
	PCALIGN $64

swap4:
	VMOVUPD (R11)(AX*1), Y1
	VMOVUPD (DX)(AX*1), Y2
	VBLENDVPD Y0, Y2, Y1, Y3
	VBLENDVPD Y0, Y1, Y2, Y2
	VMOVUPD Y3, (R11)(AX*1)
	VMOVUPD Y2, (DX)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  swap4

nextlane4:
	LEAQ 1(R14)(R14*1), R14
	INCQ BX
	CMPQ BX, $4
	JLT  lane4
	MOVQ R10, R12
	SHLQ $5, R12

inv4:
	VBROADCASTSD lanesOne<>(SB), Y0
	VDIVPD (R11)(R12*1), Y0, Y11 // Y11: 1/a[k][k]
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	LEAQ 1(R10), AX
	CMPQ AX, R8
	JGE  done
	VXORPD Y9, Y9, Y9           // Y9: zero
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8         // Y8: row k+1
	LEAQ (R11)(R9*1), DX        // DX: &a[k+1][0]
	TESTQ $1, R10
	JNZ  close4

	// Step k opens a pair: store its multipliers and bring column k+1
	// alone up to date, searching it for step k+1's pivots.
	VMOVUPD 32(R11)(R12*1), Y10 // Y10: a[k][k+1]
	OPEN4
	VMOVAPD Y1, Y14
	VMOVDQU Y8, Y13
	ADDQ R9, DX
	CMPQ DX, R13
	JGE  next4
	PCALIGN $64

open4:
	VPADDQ Y7, Y8, Y8
	OPEN4
	SEARCH(Y1, Y2, Y8, Y13, Y14)
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  open4
	JMP  next4

close4:
	// Step k closes the pair (k-1, k). Row k owes step k-1 from column
	// k+1 on; every row below owes both, and its column k+1 is searched
	// for step k+1's pivots.
	MOVQ R11, CX
	SUBQ R9, CX                 // CX: &a[k-1][0]
	VMOVUPD -32(R11)(R12*1), Y4 // Y4: the multiplier a[k][k-1]
	VCMPPD $0, Y9, Y4, Y6
	LEAQ 32(R12), AX
	PCALIGN $64

pivrow4:
	VMOVUPD (R11)(AX*1), Y2
	VMULPD (CX)(AX*1), Y4, Y0
	VSUBPD Y0, Y2, Y0
	VBLENDVPD Y6, Y2, Y0, Y2
	VMOVUPD Y2, (R11)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  pivrow4
	VPCMPEQQ Y10, Y10, Y10      // Y10: all ones for the first row searched
	PCALIGN $64

row4:
	VMOVUPD -32(DX)(R12*1), Y4  // Y4: l0 = a[i][k-1]
	VMULPD (DX)(R12*1), Y11, Y5 // Y5: l1 = a[i][k]/a[k][k]
	VMOVUPD Y5, (DX)(R12*1)
	VCMPPD $0, Y9, Y4, Y6       // Y6, Y12: the lanes whose l0, l1 are zero
	VCMPPD $0, Y9, Y5, Y12
	VORPD Y6, Y12, Y0
	VMOVMSKPD Y0, BX
	LEAQ 32(R12), AX
	TESTQ BX, BX
	JNZ  skip4
	PCALIGN $64

both4:
	VMOVUPD (DX)(AX*1), Y2
	VMULPD (CX)(AX*1), Y4, Y0
	VSUBPD Y0, Y2, Y2
	VMULPD (R11)(AX*1), Y5, Y1
	VSUBPD Y1, Y2, Y2
	VMOVUPD Y2, (DX)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  both4
	JMP  found4
	PCALIGN $64

skip4:
	VMOVUPD (DX)(AX*1), Y2
	VMULPD (CX)(AX*1), Y4, Y0
	VSUBPD Y0, Y2, Y0
	VBLENDVPD Y6, Y2, Y0, Y2
	VMULPD (R11)(AX*1), Y5, Y1
	VSUBPD Y1, Y2, Y1
	VBLENDVPD Y12, Y2, Y1, Y2
	VMOVUPD Y2, (DX)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  skip4

found4:
	VANDPD 32(DX)(R12*1), Y15, Y1
	SEARCHF(Y1, Y2, Y10, Y8, Y13, Y14)
	VPADDQ Y7, Y8, Y8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  row4

next4:
	INCQ R10
	ADDQ R9, R11
	ADDQ $32, R12
	JMP  step4

lanes2:
	MOVQ R8, R9
	SHLQ $4, R9                 // R9: bytes of one row (n entries of 16)
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	// Column 0's pivot search, rows 0..n-1.
	VANDPD (SI), X15, X14       // X14: largest |a[i][k]| so far
	VPXOR X13, X13, X13         // X13: its row, per lane
	VMOVDQU X7, X8              // X8: the row being searched
	LEAQ (SI)(R9*1), DX
	CMPQ DX, R13
	JGE  step02
	PCALIGN $64

search02:
	VANDPD (DX), X15, X1
	SEARCH(X1, X2, X8, X13, X14)
	VPADDQ X7, X8, X8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  search02

step02:
	XORQ R10, R10               // R10: step k
	MOVQ SI, R11                // R11: &a[k][0]
	XORQ R12, R12               // R12: byte offset of column k
	PCALIGN $64

step2:
	// X13 holds step k's pivot rows. Any lane without a non-zero pivot?
	VXORPD X0, X0, X0
	VCMPPD $0, X0, X14, X0
	VMOVMSKPD X0, AX
	TESTQ AX, AX
	JNZ  singular
	// Exchange rows k and p per lane, unless every lane pivots on k.
	VMOVQ R10, X0
	VPBROADCASTQ X0, X0
	VPCMPEQQ X0, X13, X0
	VMOVMSKPD X0, AX
	CMPQ AX, $3
	JEQ  inv2
	VMOVDQU X13, piv-32(SP)
	LEAQ piv-32(SP), R13
	XORQ BX, BX                 // BX: lane
	XORQ R14, R14               // R14: mask of the lanes below BX
	PCALIGN $64

lane2:
	MOVQ (R13)(BX*8), CX        // CX: the lane's pivot row p
	CMPQ CX, R10
	JEQ  nextlane2
	MOVQ BX, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), AX         // AX: the lane's permutation
	MOVQ (AX)(R10*8), DX
	MOVQ (AX)(CX*8), R12
	MOVQ R12, (AX)(R10*8)
	MOVQ DX, (AX)(CX*8)
	// Lanes sharing p swap in one pass, made by the lowest of them.
	VPBROADCASTQ (R13)(BX*8), X0
	VPCMPEQQ X0, X13, X0
	VMOVMSKPD X0, AX
	TESTQ R14, AX
	JNZ  nextlane2
	MOVQ CX, DX
	IMULQ R9, DX
	ADDQ SI, DX                 // DX: &a[p][0]
	XORQ AX, AX
	PCALIGN $64

swap2:
	VMOVUPD (R11)(AX*1), X1
	VMOVUPD (DX)(AX*1), X2
	VBLENDVPD X0, X2, X1, X3
	VBLENDVPD X0, X1, X2, X2
	VMOVUPD X3, (R11)(AX*1)
	VMOVUPD X2, (DX)(AX*1)
	ADDQ $16, AX
	CMPQ AX, R9
	JLT  swap2

nextlane2:
	LEAQ 1(R14)(R14*1), R14
	INCQ BX
	CMPQ BX, $2
	JLT  lane2
	MOVQ R10, R12
	SHLQ $4, R12

inv2:
	VMOVDDUP lanesOne<>(SB), X0
	VDIVPD (R11)(R12*1), X0, X11 // X11: 1/a[k][k]
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	LEAQ 1(R10), AX
	CMPQ AX, R8
	JGE  done
	VXORPD X9, X9, X9           // X9: zero
	VMOVQ AX, X8
	VPBROADCASTQ X8, X8         // X8: row k+1
	LEAQ (R11)(R9*1), DX        // DX: &a[k+1][0]
	TESTQ $1, R10
	JNZ  close2

	// Step k opens a pair: store its multipliers and bring column k+1
	// alone up to date, searching it for step k+1's pivots.
	VMOVUPD 16(R11)(R12*1), X10 // X10: a[k][k+1]
	OPEN2
	VMOVAPD X1, X14
	VMOVDQU X8, X13
	ADDQ R9, DX
	CMPQ DX, R13
	JGE  next2
	PCALIGN $64

open2:
	VPADDQ X7, X8, X8
	OPEN2
	SEARCH(X1, X2, X8, X13, X14)
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  open2
	JMP  next2

close2:
	// Step k closes the pair (k-1, k). Row k owes step k-1 from column
	// k+1 on; every row below owes both, and its column k+1 is searched
	// for step k+1's pivots.
	MOVQ R11, CX
	SUBQ R9, CX                 // CX: &a[k-1][0]
	VMOVUPD -16(R11)(R12*1), X4 // X4: the multiplier a[k][k-1]
	VCMPPD $0, X9, X4, X6
	LEAQ 16(R12), AX
	PCALIGN $64

pivrow2:
	VMOVUPD (R11)(AX*1), X2
	VMULPD (CX)(AX*1), X4, X0
	VSUBPD X0, X2, X0
	VBLENDVPD X6, X2, X0, X2
	VMOVUPD X2, (R11)(AX*1)
	ADDQ $16, AX
	CMPQ AX, R9
	JLT  pivrow2
	VPCMPEQQ X10, X10, X10      // X10: all ones for the first row searched
	PCALIGN $64

row2:
	VMOVUPD -16(DX)(R12*1), X4  // X4: l0 = a[i][k-1]
	VMULPD (DX)(R12*1), X11, X5 // X5: l1 = a[i][k]/a[k][k]
	VMOVUPD X5, (DX)(R12*1)
	VCMPPD $0, X9, X4, X6       // X6, X12: the lanes whose l0, l1 are zero
	VCMPPD $0, X9, X5, X12
	VORPD X6, X12, X0
	VMOVMSKPD X0, BX
	LEAQ 16(R12), AX
	TESTQ BX, BX
	JNZ  skip2
	PCALIGN $64

both2:
	VMOVUPD (DX)(AX*1), X2
	VMULPD (CX)(AX*1), X4, X0
	VSUBPD X0, X2, X2
	VMULPD (R11)(AX*1), X5, X1
	VSUBPD X1, X2, X2
	VMOVUPD X2, (DX)(AX*1)
	ADDQ $16, AX
	CMPQ AX, R9
	JLT  both2
	JMP  found2
	PCALIGN $64

skip2:
	VMOVUPD (DX)(AX*1), X2
	VMULPD (CX)(AX*1), X4, X0
	VSUBPD X0, X2, X0
	VBLENDVPD X6, X2, X0, X2
	VMULPD (R11)(AX*1), X5, X1
	VSUBPD X1, X2, X1
	VBLENDVPD X12, X2, X1, X2
	VMOVUPD X2, (DX)(AX*1)
	ADDQ $16, AX
	CMPQ AX, R9
	JLT  skip2

found2:
	VANDPD 16(DX)(R12*1), X15, X1
	SEARCHF(X1, X2, X10, X8, X13, X14)
	VPADDQ X7, X8, X8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  row2

next2:
	INCQ R10
	ADDQ R9, R11
	ADDQ $16, R12
	JMP  step2

done:
	VZEROUPPER
	MOVQ $0, ret+64(FP)
	RET

singular:
	VZEROUPPER
	MOVQ $1, ret+64(FP)
	RET


// One column of a step inside a panel, at byte offset OFF past column k
// of row DX (R11 the pivot row): T <- T - L*u, the lanes whose L is zero
// (mask M) keeping T, with P scratch. The result is left in T.
#define PANEL(OFF, L, M, T, P) \
	PANELV(OFF, L, M, T, P); \
	VMOVUPD T, OFF(DX)(R12*1)

// PANEL's value alone, nothing stored.
#define PANELV(OFF, L, M, T, P) \
	VMOVUPD OFF(DX)(R12*1), T; \
	VMULPD OFF(R11)(R12*1), L, P; \
	VSUBPD P, T, P; \
	VBLENDVPD M, T, P, T

// PANEL for a row none of whose lanes has a zero multiplier: no blend.
#define PANELF(OFF, L, T, P) \
	VMOVUPD OFF(DX)(R12*1), T; \
	VMULPD OFF(R11)(R12*1), L, P; \
	VSUBPD P, T, T; \
	VMOVUPD T, OFF(DX)(R12*1)

// The four row operations of a panel on one chunk of the target row DX
// at byte offset AX: t <- (((t - l0*u0) - l1*u1) - l2*u2) - l3*u3, u0..u3
// the panel's pivot rows R14, CX, BX, R11, each product rounded before
// its subtract. P is scratch.
#define RANK4(T, P, L0, L1, L2, L3) \
	VMOVUPD (DX)(AX*1), T; \
	VMULPD (R14)(AX*1), L0, P; \
	VSUBPD P, T, T; \
	VMULPD (CX)(AX*1), L1, P; \
	VSUBPD P, T, T; \
	VMULPD (BX)(AX*1), L2, P; \
	VSUBPD P, T, T; \
	VMULPD (R11)(AX*1), L3, P; \
	VSUBPD P, T, T; \
	VMOVUPD T, (DX)(AX*1)

// RANK4 for a row with a zero multiplier: each difference is blended
// under M0..M3, the lanes whose l0..l3 are zero, which keep t as the
// scalar loop skips the row.
#define RANK4B(T, P, L0, L1, L2, L3, M0, M1, M2, M3) \
	VMOVUPD (DX)(AX*1), T; \
	VMULPD (R14)(AX*1), L0, P; \
	VSUBPD P, T, P; \
	VBLENDVPD M0, T, P, T; \
	VMULPD (CX)(AX*1), L1, P; \
	VSUBPD P, T, P; \
	VBLENDVPD M1, T, P, T; \
	VMULPD (BX)(AX*1), L2, P; \
	VSUBPD P, T, P; \
	VBLENDVPD M2, T, P, T; \
	VMULPD (R11)(AX*1), L3, P; \
	VSUBPD P, T, P; \
	VBLENDVPD M3, T, P, T; \
	VMOVUPD T, (DX)(AX*1)

// RANK4 on a 64-byte chunk in Z registers, l0..l3 in Z2..Z5: each
// subtract merge-masked by K1..K4, the lanes whose multiplier is not
// zero, so the others keep t.
#define RANK4Z \
	VMOVUPD (DX)(AX*1), Z0; \
	VMULPD (R14)(AX*1), Z2, Z1; \
	VSUBPD Z1, Z0, K1, Z0; \
	VMULPD (CX)(AX*1), Z3, Z1; \
	VSUBPD Z1, Z0, K2, Z0; \
	VMULPD (BX)(AX*1), Z4, Z1; \
	VSUBPD Z1, Z0, K3, Z0; \
	VMULPD (R11)(AX*1), Z5, Z1; \
	VSUBPD Z1, Z0, K4, Z0; \
	VMOVUPD Z0, (DX)(AX*1)

// RANK4Z on the row's last, partial chunk: K5 selects its entries, and
// every load and the store are masked by it, so nothing past the row is
// touched.
#define RANK4ZT \
	VMOVUPD.Z (DX)(AX*1), K5, Z0; \
	VMULPD.Z (R14)(AX*1), Z2, K5, Z1; \
	VSUBPD Z1, Z0, K1, Z0; \
	VMULPD.Z (CX)(AX*1), Z3, K5, Z1; \
	VSUBPD Z1, Z0, K2, Z0; \
	VMULPD.Z (BX)(AX*1), Z4, K5, Z1; \
	VSUBPD Z1, Z0, K3, Z0; \
	VMULPD.Z (R11)(AX*1), Z5, K5, Z1; \
	VSUBPD Z1, Z0, K4, Z0; \
	VMOVUPD Z0, K5, (DX)(AX*1)

// tailMask: entry e is (1<<e) - 1, the K mask of a chunk's first e
// entries.
DATA tailMask<>+0(SB)/8, $0x0007000300010000
DATA tailMask<>+8(SB)/8, $0x007f003f001f000f
GLOBL tailMask<>(SB), RODATA|NOPTR, $16

// func factorLanesBlocked(lu []float64, perm []int, n, w int, zmm bool) int
//
// FactorLanes for w = 4 (Y registers, 32-byte entries) or w = 2 (X
// registers, 16-byte entries), n >= 1, perm already the identity per
// lane; returns 1 if some lane meets a zero pivot column, else 0. Every
// lane runs eliminate's sequence, its steps taken in panels of four
// columns k0..k0+3 (the last panel k0..n-1 may be narrower). A step
// inside a panel stores each lower row's multiplier and brings the
// panel's later columns of that row up to date, searching column k+1 for
// the next pivot as it goes. The step closing a full panel (k = k0+3,
// with columns right of the panel) makes one pass over rows k0+1..n-1:
// pivot row k0+q applies the panel's first q row operations, every lower
// row forms its step-k multiplier and applies all four, l0 then l1, l2,
// l3, to each of its trailing columns in one pass (RANK4), and column
// k0+4 is searched for the next panel's first pivot. The column order
// of each entry's subtracts is eliminate's, with the same operands: the
// pivot rows are final before any lower row reads them. A lane whose
// multiplier is zero keeps its entry, as the scalar loop skips the row:
// VBLENDVPD on rows with a zero multiplier (rows without one take a loop
// with no blend), a merge mask on the Z path. Row exchanges are masked blends of the two whole
// rows, one pass per distinct pivot row; each lane's permutation is
// swapped in place as its row is. With zmm (AVX-512F) the closing pass
// runs on Z registers, two 4-lane or four 2-lane entries per
// instruction; everything else, and the closing pass without zmm, is Y
// (2 entries of 2 lanes in its closing pass) or X.
TEXT ·factorLanesBlocked(SB), NOSPLIT, $64-80
	MOVQ lu_base+0(FP), SI
	MOVQ perm_base+24(FP), DI
	MOVQ n+48(FP), R8
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ $63, Y15, Y7         // Y7: one per lane, the row step
	VPSRLQ $1, Y15, Y15         // Y15: the |x| mask
	CMPQ w+56(FP), $4
	JNE  lanes2

lanes4:
	MOVQ R8, R9
	SHLQ $5, R9                 // R9: bytes of one row (n entries of 32)
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	// Column 0's pivot search, seeded with row 0, rows 1..n-1.
	VANDPD (SI), Y15, Y14       // Y14: largest |a[i][k]| so far
	VPXOR Y13, Y13, Y13         // Y13: its row, per lane
	VMOVDQU Y7, Y8              // Y8: the row being searched
	LEAQ (SI)(R9*1), DX
	CMPQ DX, R13
	JGE  step04
	PCALIGN $64

search04:
	VANDPD (DX), Y15, Y1
	SEARCH(Y1, Y2, Y8, Y13, Y14)
	VPADDQ Y7, Y8, Y8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  search04

step04:
	XORQ R10, R10               // R10: step k
	MOVQ SI, R11                // R11: &a[k][0]
	XORQ R12, R12               // R12: byte offset of column k
	PCALIGN $64

step4:
	// Y13 holds step k's pivot rows. Any lane without a non-zero pivot?
	VXORPD Y0, Y0, Y0
	VCMPPD $0, Y0, Y14, Y0
	VMOVMSKPD Y0, AX
	TESTQ AX, AX
	JNZ  singular
	// Exchange rows k and p per lane, unless every lane pivots on k.
	VMOVQ R10, X0
	VPBROADCASTQ X0, Y0
	VPCMPEQQ Y0, Y13, Y0
	VMOVMSKPD Y0, AX
	CMPQ AX, $15
	JEQ  inv4
	VMOVDQU Y13, piv-32(SP)
	LEAQ piv-32(SP), R13
	XORQ BX, BX                 // BX: lane
	XORQ R14, R14               // R14: mask of the lanes below BX
	PCALIGN $64

lane4:
	MOVQ (R13)(BX*8), CX        // CX: the lane's pivot row p
	CMPQ CX, R10
	JEQ  nextlane4
	MOVQ BX, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), AX         // AX: the lane's permutation
	MOVQ (AX)(R10*8), DX
	MOVQ (AX)(CX*8), R12
	MOVQ R12, (AX)(R10*8)
	MOVQ DX, (AX)(CX*8)
	// Lanes sharing p swap in one pass, made by the lowest of them.
	VPBROADCASTQ (R13)(BX*8), Y0
	VPCMPEQQ Y0, Y13, Y0
	VMOVMSKPD Y0, AX
	TESTQ R14, AX
	JNZ  nextlane4
	MOVQ CX, DX
	IMULQ R9, DX
	ADDQ SI, DX                 // DX: &a[p][0]
	XORQ AX, AX
	PCALIGN $64

swap4:
	VMOVUPD (R11)(AX*1), Y1
	VMOVUPD (DX)(AX*1), Y2
	VBLENDVPD Y0, Y2, Y1, Y3
	VBLENDVPD Y0, Y1, Y2, Y2
	VMOVUPD Y3, (R11)(AX*1)
	VMOVUPD Y2, (DX)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  swap4

nextlane4:
	LEAQ 1(R14)(R14*1), R14
	INCQ BX
	CMPQ BX, $4
	JLT  lane4
	MOVQ R10, R12
	SHLQ $5, R12

inv4:
	VBROADCASTSD lanesOne<>(SB), Y0
	VDIVPD (R11)(R12*1), Y0, Y11 // Y11: 1/a[k][k]
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	LEAQ 1(R10), AX
	CMPQ AX, R8
	JGE  done
	VMOVUPD Y11, inv-64(SP)
	VXORPD Y9, Y9, Y9           // Y9: zero
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8         // Y8: row k+1, the first searched
	LEAQ (R11)(R9*1), DX        // DX: &a[k+1][0]
	MOVQ R10, BX
	ANDQ $3, BX
	CMPQ BX, $3
	JEQ  close4
	// Step k inside a panel: every row below stores its multiplier and
	// brings columns k+1..kend-1 up to date, kend = min((k|3)+1, n),
	// searching column k+1 for step k+1's pivots.
	MOVQ R10, BX
	ORQ  $3, BX
	INCQ BX
	CMPQ BX, R8
	CMOVQGT R8, BX
	SUBQ R10, BX
	DECQ BX                     // BX: kend-k-1 columns, 1, 2 or 3
	// Seed the search with row k+1's new a[k+1][k+1], the bits the
	// loop's first row computes and stores.
	VMULPD (DX)(R12*1), Y11, Y0
	VCMPPD $0, Y9, Y0, Y3
	PANELV(32, Y0, Y3, Y1, Y2)
	VANDPD Y15, Y1, Y14
	VMOVDQU Y8, Y13
	PCALIGN $64

panel4:
	VMULPD (DX)(R12*1), Y11, Y0 // Y0: l = a[i][k]/a[k][k]
	VMOVUPD Y0, (DX)(R12*1)
	VCMPPD $0, Y9, Y0, Y3       // Y3: the lanes whose l is zero
	VPTEST Y3, Y3
	JNZ  pskip4
	PANELF(32, Y0, Y1, Y2)
	VANDPD Y15, Y1, Y4          // Y4: |a[i][k+1]|
	CMPQ BX, $2
	JLT  psearch4
	PANELF(64, Y0, Y5, Y2)
	JEQ  psearch4
	PANELF(96, Y0, Y5, Y2)
	JMP  psearch4

pskip4:
	PANEL(32, Y0, Y3, Y1, Y2)
	VANDPD Y15, Y1, Y4
	CMPQ BX, $2
	JLT  psearch4
	PANEL(64, Y0, Y3, Y1, Y2)
	JEQ  psearch4
	PANEL(96, Y0, Y3, Y1, Y2)

psearch4:
	SEARCH(Y4, Y2, Y8, Y13, Y14)
	VPADDQ Y7, Y8, Y8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  panel4
	JMP  next4

close4:
	// Step k closes the panel k0 = k-3: rows k-2..n-1 owe it the
	// columns right of k.
	MOVQ R11, BX
	SUBQ R9, BX                 // BX: &a[k-1][0]
	MOVQ BX, CX
	SUBQ R9, CX                 // CX: &a[k-2][0]
	MOVQ CX, R14
	SUBQ R9, R14                // R14: &a[k-3][0]
	MOVQ CX, DX                 // DX: row k-2, the first that owes the panel
	VPCMPEQQ Y10, Y10, Y10      // Y10: all ones for the first row searched
	CMPB zmm+64(FP), $0
	JNE  close4z
	PCALIGN $64

trow4:
	VXORPD Y9, Y9, Y9
	VMOVUPD -96(DX)(R12*1), Y2  // Y2..Y4: l0..l2, the row's multipliers of steps k-3..k-1
	VMOVUPD -64(DX)(R12*1), Y3
	VMOVUPD -32(DX)(R12*1), Y4
	CMPQ DX, R11
	JHI  tlow4
	// Row k-3+q (q = 1, 2, 3) is a pivot row of the panel: it owes steps
	// k-3..k-4+q alone, so the later multipliers read as zero.
	VXORPD Y5, Y5, Y5
	CMPQ DX, BX
	JHI  tmask4
	VXORPD Y4, Y4, Y4
	CMPQ DX, CX
	JHI  tmask4
	VXORPD Y3, Y3, Y3
	JMP  tmask4

tlow4:
	VMOVUPD inv-64(SP), Y5
	VMULPD (DX)(R12*1), Y5, Y5  // Y5: l3 = a[i][k]/a[k][k]
	VMOVUPD Y5, (DX)(R12*1)

tmask4:
	VCMPPD $0, Y9, Y2, Y6       // Y6, Y12, Y11, Y9: the lanes whose l0..l3 are zero
	VCMPPD $0, Y9, Y3, Y12
	VCMPPD $0, Y9, Y4, Y11
	VCMPPD $0, Y9, Y5, Y9
	VORPD Y6, Y12, Y0
	VORPD Y11, Y9, Y1
	VORPD Y0, Y1, Y0
	LEAQ 32(R12), AX
	VPTEST Y0, Y0
	JZ   tfast4
	JMP  tskip4
	PCALIGN $64

tfast4:
	RANK4(Y0, Y1, Y2, Y3, Y4, Y5)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  tfast4
	JMP  tfound4
	PCALIGN $64

tskip4:
	RANK4B(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y12, Y11, Y9)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  tskip4

tfound4:
	CMPQ DX, R11
	JLS  tnext4
	VANDPD 32(DX)(R12*1), Y15, Y1
	SEARCHF(Y1, Y2, Y10, Y8, Y13, Y14)
	VPADDQ Y7, Y8, Y8

tnext4:
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  trow4
	JMP  next4

close4z:
	// K5: the entries of the row's last, partial Z chunk (none when the
	// columns right of k fill whole chunks).
	MOVQ R9, R10
	SUBQ R12, R10
	SUBQ $32, R10
	ANDQ $63, R10
	SHRQ $3, R10
	LEAQ tailMask<>(SB), AX
	KMOVW (AX)(R10*2), K5
	LEAQ -32(R9), R10           // R10: a chunk starting below it is whole
	PCALIGN $64

trowz4:
	VBROADCASTF64X4 -96(DX)(R12*1), Z2 // Z2..Z4: l0..l2, each twice
	VBROADCASTF64X4 -64(DX)(R12*1), Z3
	VBROADCASTF64X4 -32(DX)(R12*1), Z4
	CMPQ DX, R11
	JHI  tlowz4
	VXORPD Y5, Y5, Y5           // a pivot row of the panel, as in trow4
	CMPQ DX, BX
	JHI  tmaskz4
	VXORPD Y4, Y4, Y4
	CMPQ DX, CX
	JHI  tmaskz4
	VXORPD Y3, Y3, Y3
	JMP  tmaskz4

tlowz4:
	VMULPD (DX)(R12*1), Y11, Y5 // Y5: l3 = a[i][k]/a[k][k]
	VMOVUPD Y5, (DX)(R12*1)
	VSHUFF64X2 $0x44, Z5, Z5, Z5

tmaskz4:
	VCMPPD $4, Z9, Z2, K1       // K1..K4: the lanes whose l0..l3 are not zero
	VCMPPD $4, Z9, Z3, K2
	VCMPPD $4, Z9, Z4, K3
	VCMPPD $4, Z9, Z5, K4
	LEAQ 32(R12), AX
	CMPQ AX, R10
	JLT  tz4
	JMP  ttailz4
	PCALIGN $64

tz4:
	RANK4Z
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  tz4

ttailz4:
	CMPQ AX, R9
	JGE  tfoundz4
	RANK4ZT

tfoundz4:
	CMPQ DX, R11
	JLS  tnextz4
	VANDPD 32(DX)(R12*1), Y15, Y1
	SEARCHF(Y1, Y2, Y10, Y8, Y13, Y14)
	VPADDQ Y7, Y8, Y8

tnextz4:
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  trowz4
	MOVQ R12, R10
	SHRQ $5, R10                // R10: step k again

next4:
	INCQ R10
	ADDQ R9, R11
	ADDQ $32, R12
	JMP  step4

lanes2:
	MOVQ R8, R9
	SHLQ $4, R9                 // R9: bytes of one row (n entries of 16)
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	// Column 0's pivot search, seeded with row 0, rows 1..n-1.
	VANDPD (SI), X15, X14       // X14: largest |a[i][k]| so far
	VPXOR X13, X13, X13         // X13: its row, per lane
	VMOVDQU X7, X8              // X8: the row being searched
	LEAQ (SI)(R9*1), DX
	CMPQ DX, R13
	JGE  step02
	PCALIGN $64

search02:
	VANDPD (DX), X15, X1
	SEARCH(X1, X2, X8, X13, X14)
	VPADDQ X7, X8, X8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  search02

step02:
	XORQ R10, R10               // R10: step k
	MOVQ SI, R11                // R11: &a[k][0]
	XORQ R12, R12               // R12: byte offset of column k
	PCALIGN $64

step2:
	// X13 holds step k's pivot rows. Any lane without a non-zero pivot?
	VXORPD X0, X0, X0
	VCMPPD $0, X0, X14, X0
	VMOVMSKPD X0, AX
	TESTQ AX, AX
	JNZ  singular
	// Exchange rows k and p per lane, unless every lane pivots on k.
	VMOVQ R10, X0
	VPBROADCASTQ X0, X0
	VPCMPEQQ X0, X13, X0
	VMOVMSKPD X0, AX
	CMPQ AX, $3
	JEQ  inv2
	VMOVDQU X13, piv-32(SP)
	LEAQ piv-32(SP), R13
	XORQ BX, BX                 // BX: lane
	XORQ R14, R14               // R14: mask of the lanes below BX
	PCALIGN $64

lane2:
	MOVQ (R13)(BX*8), CX        // CX: the lane's pivot row p
	CMPQ CX, R10
	JEQ  nextlane2
	MOVQ BX, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), AX         // AX: the lane's permutation
	MOVQ (AX)(R10*8), DX
	MOVQ (AX)(CX*8), R12
	MOVQ R12, (AX)(R10*8)
	MOVQ DX, (AX)(CX*8)
	// Lanes sharing p swap in one pass, made by the lowest of them.
	VPBROADCASTQ (R13)(BX*8), X0
	VPCMPEQQ X0, X13, X0
	VMOVMSKPD X0, AX
	TESTQ R14, AX
	JNZ  nextlane2
	MOVQ CX, DX
	IMULQ R9, DX
	ADDQ SI, DX                 // DX: &a[p][0]
	XORQ AX, AX
	PCALIGN $64

swap2:
	VMOVUPD (R11)(AX*1), X1
	VMOVUPD (DX)(AX*1), X2
	VBLENDVPD X0, X2, X1, X3
	VBLENDVPD X0, X1, X2, X2
	VMOVUPD X3, (R11)(AX*1)
	VMOVUPD X2, (DX)(AX*1)
	ADDQ $16, AX
	CMPQ AX, R9
	JLT  swap2

nextlane2:
	LEAQ 1(R14)(R14*1), R14
	INCQ BX
	CMPQ BX, $2
	JLT  lane2
	MOVQ R10, R12
	SHLQ $4, R12

inv2:
	VMOVDDUP lanesOne<>(SB), X0
	VDIVPD (R11)(R12*1), X0, X11 // X11: 1/a[k][k]
	MOVQ R9, R13
	IMULQ R8, R13
	ADDQ SI, R13                // R13: end of the matrix
	LEAQ 1(R10), AX
	CMPQ AX, R8
	JGE  done
	VMOVUPD X11, inv-64(SP)
	VXORPD X9, X9, X9           // X9: zero
	VMOVQ AX, X8
	VPBROADCASTQ X8, X8         // X8: row k+1, the first searched
	LEAQ (R11)(R9*1), DX        // DX: &a[k+1][0]
	MOVQ R10, BX
	ANDQ $3, BX
	CMPQ BX, $3
	JEQ  close2
	// Step k inside a panel, as panel4.
	MOVQ R10, BX
	ORQ  $3, BX
	INCQ BX
	CMPQ BX, R8
	CMOVQGT R8, BX
	SUBQ R10, BX
	DECQ BX                     // BX: kend-k-1 columns, 1, 2 or 3
	// Seed the search with row k+1's new a[k+1][k+1], the bits the
	// loop's first row computes and stores.
	VMULPD (DX)(R12*1), X11, X0
	VCMPPD $0, X9, X0, X3
	PANELV(16, X0, X3, X1, X2)
	VANDPD X15, X1, X14
	VMOVDQU X8, X13
	PCALIGN $64

panel2:
	VMULPD (DX)(R12*1), X11, X0 // X0: l = a[i][k]/a[k][k]
	VMOVUPD X0, (DX)(R12*1)
	VCMPPD $0, X9, X0, X3       // X3: the lanes whose l is zero
	VPTEST X3, X3
	JNZ  pskip2
	PANELF(16, X0, X1, X2)
	VANDPD X15, X1, X4          // X4: |a[i][k+1]|
	CMPQ BX, $2
	JLT  psearch2
	PANELF(32, X0, X5, X2)
	JEQ  psearch2
	PANELF(48, X0, X5, X2)
	JMP  psearch2

pskip2:
	PANEL(16, X0, X3, X1, X2)
	VANDPD X15, X1, X4
	CMPQ BX, $2
	JLT  psearch2
	PANEL(32, X0, X3, X1, X2)
	JEQ  psearch2
	PANEL(48, X0, X3, X1, X2)

psearch2:
	SEARCH(X4, X2, X8, X13, X14)
	VPADDQ X7, X8, X8
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  panel2
	JMP  next2

close2:
	// Step k closes the panel k0 = k-3, as close4; the trailing columns
	// go two entries (32 bytes) to a Y register, an odd last one in X.
	MOVQ R11, BX
	SUBQ R9, BX                 // BX: &a[k-1][0]
	MOVQ BX, CX
	SUBQ R9, CX                 // CX: &a[k-2][0]
	MOVQ CX, R14
	SUBQ R9, R14                // R14: &a[k-3][0]
	MOVQ CX, DX                 // DX: row k-2, the first that owes the panel
	VPCMPEQQ Y10, Y10, Y10      // Y10: all ones for the first row searched
	CMPB zmm+64(FP), $0
	JNE  close2z
	LEAQ -16(R9), R10           // R10: a Y chunk starting below it is whole
	PCALIGN $64

trow2:
	VXORPD Y9, Y9, Y9
	VBROADCASTF128 -48(DX)(R12*1), Y2 // Y2..Y4: l0..l2, each twice
	VBROADCASTF128 -32(DX)(R12*1), Y3
	VBROADCASTF128 -16(DX)(R12*1), Y4
	CMPQ DX, R11
	JHI  tlow2
	VXORPD Y5, Y5, Y5           // a pivot row of the panel, as in trow4
	CMPQ DX, BX
	JHI  tmask2
	VXORPD Y4, Y4, Y4
	CMPQ DX, CX
	JHI  tmask2
	VXORPD Y3, Y3, Y3
	JMP  tmask2

tlow2:
	VMOVUPD inv-64(SP), X5
	VMULPD (DX)(R12*1), X5, X5  // X5: l3 = a[i][k]/a[k][k]
	VMOVUPD X5, (DX)(R12*1)
	VINSERTF128 $1, X5, Y5, Y5

tmask2:
	VCMPPD $0, Y9, Y2, Y6       // Y6, Y12, Y11, Y9: the lanes whose l0..l3 are zero
	VCMPPD $0, Y9, Y3, Y12
	VCMPPD $0, Y9, Y4, Y11
	VCMPPD $0, Y9, Y5, Y9
	VORPD Y6, Y12, Y0
	VORPD Y11, Y9, Y1
	VORPD Y0, Y1, Y0
	LEAQ 16(R12), AX
	VPTEST Y0, Y0
	JNZ  tskip2
	CMPQ AX, R10
	JLT  tfast2
	JMP  tfastt2
	PCALIGN $64

tfast2:
	RANK4(Y0, Y1, Y2, Y3, Y4, Y5)
	ADDQ $32, AX
	CMPQ AX, R10
	JLT  tfast2

tfastt2:
	CMPQ AX, R9
	JGE  tfound2
	RANK4(X0, X1, X2, X3, X4, X5)
	JMP  tfound2

tskip2:
	CMPQ AX, R10
	JLT  tskipl2
	JMP  tskipt2
	PCALIGN $64

tskipl2:
	RANK4B(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y12, Y11, Y9)
	ADDQ $32, AX
	CMPQ AX, R10
	JLT  tskipl2

tskipt2:
	CMPQ AX, R9
	JGE  tfound2
	RANK4B(X0, X1, X2, X3, X4, X5, X6, X12, X11, X9)

tfound2:
	CMPQ DX, R11
	JLS  tnext2
	VANDPD 16(DX)(R12*1), X15, X1
	SEARCHF(X1, X2, X10, X8, X13, X14)
	VPADDQ X7, X8, X8

tnext2:
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  trow2
	JMP  tdone2

close2z:
	MOVQ R9, R10                // K5 and R10 as in close4z
	SUBQ R12, R10
	SUBQ $16, R10
	ANDQ $63, R10
	SHRQ $3, R10
	LEAQ tailMask<>(SB), AX
	KMOVW (AX)(R10*2), K5
	LEAQ -48(R9), R10
	PCALIGN $64

trowz2:
	VBROADCASTF32X4 -48(DX)(R12*1), Z2 // Z2..Z4: l0..l2, each four times
	VBROADCASTF32X4 -32(DX)(R12*1), Z3
	VBROADCASTF32X4 -16(DX)(R12*1), Z4
	CMPQ DX, R11
	JHI  tlowz2
	VXORPD Y5, Y5, Y5           // a pivot row of the panel, as in trow4
	CMPQ DX, BX
	JHI  tmaskz2
	VXORPD Y4, Y4, Y4
	CMPQ DX, CX
	JHI  tmaskz2
	VXORPD Y3, Y3, Y3
	JMP  tmaskz2

tlowz2:
	VMULPD (DX)(R12*1), X11, X5 // X5: l3 = a[i][k]/a[k][k]
	VMOVUPD X5, (DX)(R12*1)
	VSHUFF64X2 $0, Z5, Z5, Z5

tmaskz2:
	VCMPPD $4, Z9, Z2, K1       // K1..K4: the lanes whose l0..l3 are not zero
	VCMPPD $4, Z9, Z3, K2
	VCMPPD $4, Z9, Z4, K3
	VCMPPD $4, Z9, Z5, K4
	LEAQ 16(R12), AX
	CMPQ AX, R10
	JLT  tz2
	JMP  ttailz2
	PCALIGN $64

tz2:
	RANK4Z
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  tz2

ttailz2:
	CMPQ AX, R9
	JGE  tfoundz2
	RANK4ZT

tfoundz2:
	CMPQ DX, R11
	JLS  tnextz2
	VANDPD 16(DX)(R12*1), X15, X1
	SEARCHF(X1, X2, X10, X8, X13, X14)
	VPADDQ X7, X8, X8

tnextz2:
	ADDQ R9, DX
	CMPQ DX, R13
	JLT  trowz2

tdone2:
	MOVQ R12, R10
	SHRQ $4, R10                // R10: step k again

next2:
	INCQ R10
	ADDQ R9, R11
	ADDQ $16, R12
	JMP  step2

done:
	VZEROUPPER
	MOVQ $0, ret+72(FP)
	RET

singular:
	VZEROUPPER
	MOVQ $1, ret+72(FP)
	RET
