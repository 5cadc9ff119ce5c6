package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when elimination encounters a pivot that is
// exactly zero (the local transport matrices are strictly diagonally
// dominated in practice, so this indicates a malformed assembly).
var ErrSingular = errors.New("la: matrix is singular")

// Matrix is a dense row-major n x n matrix.
type Matrix struct {
	N    int
	Data []float64 // len N*N, row-major: Data[i*N+j]
}

// NewMatrix allocates a zero n x n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add accumulates into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies src into m; the dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.N != src.N {
		panic(fmt.Sprintf("la: CopyFrom dimension mismatch %d vs %d", m.N, src.N))
	}
	copy(m.Data, src.Data)
}

// MatVec computes y = A x.
func MatVec(a *Matrix, x, y []float64) {
	n := a.N
	for i := 0; i < n; i++ {
		row := a.Data[i*n : i*n+n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Residual returns max_i |A x - b|_i.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.N
	r := 0.0
	for i := 0; i < n; i++ {
		row := a.Data[i*n : i*n+n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		if d := math.Abs(s - b[i]); d > r {
			r = d
		}
	}
	return r
}

// SolveGE solves A x = b by Gaussian elimination with partial pivoting:
// the paper's hand-written solver. A is overwritten by its LU factors and
// b by the forward-eliminated right-hand side; on return x holds the
// solution (x may alias b).
func SolveGE(a *Matrix, b, x []float64) error {
	n := a.N
	if len(b) != n || len(x) != n {
		return fmt.Errorf("la: SolveGE size mismatch: n=%d len(b)=%d len(x)=%d", n, len(b), len(x))
	}
	if err := eliminate(a, nil, b, 0, n); err != nil {
		return err
	}
	copy(x, b)
	backSolve(a, x)
	return nil
}

// backSolve solves U x = y in place for the one right-hand side b, U the
// upper triangle eliminate leaves in a.
func backSolve(a *Matrix, b []float64) {
	n := a.N
	ad := a.Data
	b = b[:n]
	for i := n - 1; i >= 0; i-- {
		row := ad[i*n : i*n+n]
		tail := row[i+1:]
		bt := b[i+1:]
		bt = bt[:len(tail)]
		s := b[i]
		for j, v := range tail {
			s -= v * bt[j]
		}
		b[i] = s / row[i]
	}
}

// DefaultBlockSize is the panel width used by the blocked LU. 32 keeps a
// panel of the paper's largest matrix (216 x 216) within L1-sized strides
// while amortising the pivot search; LAPACK uses a similar magnitude.
const DefaultBlockSize = 32

// Factor computes an in-place LU factorisation of A with partial pivoting
// (unblocked, right-looking: LAPACK getrf2). piv, of length n, records
// the row interchanged with row k at step k.
func Factor(a *Matrix, piv []int) error {
	return eliminate(a, piv, nil, 0, a.N)
}

// FactorBlocked computes an in-place LU factorisation with partial
// pivoting using the blocked right-looking algorithm (LAPACK getrf):
// panel factorisation, block row triangular solve, then a rank-nb trailing
// update that takes the target rows a few at a time and runs every pivot
// pair of the panel over them while they sit in L1. Each element still has
// the panel's steps subtracted one by one in pivot order through the row
// operations eliminate uses, so factors and pivots are bitwise Factor's.
func FactorBlocked(a *Matrix, piv []int, nb int) error {
	n := a.N
	if nb < 1 {
		nb = DefaultBlockSize
	}
	if nb >= n {
		return Factor(a, piv)
	}
	ad := a.Data[:n*n]
	for k := 0; k < n; k += nb {
		kend := min(k+nb, n)
		// Factor the panel (cols k..kend-1), swaps applied across all cols.
		if err := eliminate(a, piv, nil, k, kend); err != nil {
			return err
		}
		if kend == n {
			break
		}
		// U12 := L11^{-1} A12 — the unit lower triangular solve on the
		// block row is the panel's own elimination carried on to columns
		// kend..n-1 of the panel's rows, a pivot pair at a time.
		for m := k + 1; m < kend; m += 2 {
			rowSub(ad, n, nil, m, m-1, kend, n)
			pairUpdate(ad, n, nil, m, kend, n, m+1, kend)
		}
		// A22 -= L21 * U12, blockedRows target rows at a time.
		for i := kend; i < n; i += blockedRows {
			i1 := min(i+blockedRows, n)
			m := k + 1
			for ; m < kend; m += 2 {
				pairUpdate(ad, n, nil, m, kend, n, i, i1)
			}
			if m == kend { // odd panel width: one step left unpaired
				for ii := i; ii < i1; ii++ {
					rowSub(ad, n, nil, ii, kend-1, kend, n)
				}
			}
		}
	}
	return nil
}

// blockedRows is the number of trailing rows FactorBlocked updates per
// pass over the panel's pivot pairs: at n = 216 eight rows of the trailing
// block and two pivot rows are 15 KB, inside L1 (4, 8 and 16 rows measure
// within noise of each other, ~400 us at n = 216 against Factor's 460).
const blockedRows = 8

// SolveFactored solves A x = b given the LU factorisation produced by
// Factor or FactorBlocked. b is overwritten with the solution.
func SolveFactored(a *Matrix, piv []int, b []float64) {
	n := a.N
	ad := a.Data
	// Apply the recorded row interchanges.
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	// Forward solve L y = P b (unit diagonal).
	for i := 1; i < n; i++ {
		row := ad[i*n : i*n+i]
		s := b[i]
		for j, v := range row {
			s -= v * b[j]
		}
		b[i] = s
	}
	// Back solve U x = y.
	for i := n - 1; i >= 0; i-- {
		row := ad[i*n : i*n+n]
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// SolveDGESV is the MKL dgesv stand-in: blocked LU factorisation with
// partial pivoting followed by the permuted triangular solves. A is
// overwritten by its factors, b by the solution. piv is caller-provided
// scratch of length n.
func SolveDGESV(a *Matrix, b []float64, piv []int) error {
	if err := FactorBlocked(a, piv, DefaultBlockSize); err != nil {
		return err
	}
	SolveFactored(a, piv, b)
	return nil
}

// minVectorLen is the shortest slice the element-wise passes hand to
// their vector kernels. Measured on the ledger's 2.1 GHz Xeon, kernel
// against Go loop in ns per call (AddScaled / AddScaledTo / Fuse3):
// 8 entries 5.2 / 6.0 / 8.7 against 9.5 / 9.0 / 10.2, 16 entries 6.5 /
// 7.3 / 10.7 against 13.9 / 13.8 / 16.1; at 4 entries Fuse3's three
// broadcasts cost more than its one vector saves (7.8 against 7.1).
const minVectorLen = 8

// Kernels names the implementation behind the trailing update of the
// elimination core, the element-wise passes and MulTN on this CPU:
// "avx512" (the assembly kernels of kernels_amd64.s, FactorLanes' trailing
// update in Z registers), "avx2" (the same kernels, all in Y registers) or
// "generic" (the pure-Go loops). All produce the same bits; the bench
// ledger records which one it timed.
func Kernels() string {
	if useAVX512 {
		return "avx512"
	}
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// AddScaled accumulates y[i] += w*x[i] (daxpy). The sweep engine's
// ordered flux reduction streams the angular flux through this kernel
// once per ordinate.
func AddScaled(y, x []float64, w float64) {
	x = x[:len(y)]
	i := 0
	if useAVX2 && len(y) >= minVectorLen {
		i = len(y) &^ 3
		addScaledAVX2(y[:i], x[:i], w)
	}
	for ; i < len(y); i++ {
		y[i] += w * x[i]
	}
}

// Fuse3 writes dst[i] = wa*a[i] + wb*b[i] + wc*c[i]: the omega-weighted
// combination that pre-fuses a per-angle face or gradient matrix out of
// its three directional factors, trading three multiplies and two adds
// per entry per use for one fused read.
func Fuse3(dst, a, b, c []float64, wa, wb, wc float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= minVectorLen {
		i = len(dst) &^ 3
		fuse3AVX2(dst[:i], a[:i], b[:i], c[:i], wa, wb, wc)
	}
	for ; i < len(dst); i++ {
		dst[i] = wa*a[i] + wb*b[i] + wc*c[i]
	}
}

// AddScaledTo writes dst[i] = base[i] + w*x[i]: the per-group local
// matrix sigma_t*M added onto a group-independent base in one pass.
func AddScaledTo(dst, base, x []float64, w float64) {
	base = base[:len(dst)]
	x = x[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= minVectorLen {
		i = len(dst) &^ 3
		addScaledToAVX2(dst[:i], base[:i], x[:i], w)
	}
	for ; i < len(dst); i++ {
		dst[i] = base[i] + w*x[i]
	}
}

// MulTN writes the m x n product C = A^T B of a k x m matrix A and a
// k x n matrix B, all row-major with leading dimensions lda, ldb, ldc:
//
//	c[t*ldc+j] = a[0*lda+t]*b[0*ldb+j] + ... + a[(k-1)*lda+t]*b[(k-1)*ldb+j]
//
// summed from +0 in ascending q, each product rounded before it is
// added — exactly the scalar loop "c[t][j] += a[q][t]*b[q][j]" over q
// on a zeroed C. fem's element integrals are this product with q the
// quadrature point, so its summation order is part of every flux bit.
// Only the m x n window of c is written; c must not overlap a or b.
func MulTN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if m <= 0 || n <= 0 {
		return
	}
	if ldc < n || lda < m || ldb < n || k < 0 {
		panic(fmt.Sprintf("la: MulTN leading dimensions (%d, %d, %d) too small for %d x %d x %d", ldc, lda, ldb, m, n, k))
	}
	// Index, not reslice: a reslice may run past len up to cap.
	_ = c[(m-1)*ldc+n-1]
	if k > 0 {
		_ = a[(k-1)*lda+m-1]
		_ = b[(k-1)*ldb+n-1]
	}
	if useAVX2 && m >= 4 && n >= 4 && k > 0 {
		// Blocks of four rows; a ragged last block ends at row m-1 and
		// rewrites rows the previous block wrote, with the same bits.
		for t := 0; t < m; t += 4 {
			t0 := min(t, m-4)
			mulTNAVX2(c[t0*ldc:], ldc, a[t0:], lda, b, ldb, n, k)
		}
		return
	}
	for t := 0; t < m; t++ {
		row := c[t*ldc : t*ldc+n]
		clear(row)
		for q := 0; q < k; q++ {
			at := a[q*lda+t]
			bq := b[q*ldb : q*ldb+n]
			for j := range row {
				row[j] += at * bq[j]
			}
		}
	}
}

// Workspace bundles the per-worker scratch needed to assemble and solve
// one local system without allocating in the sweep's hot loop.
type Workspace struct {
	A   *Matrix
	B   []float64
	X   []float64
	Piv []int
}

// NewWorkspace allocates scratch for n x n systems.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		A:   NewMatrix(n),
		B:   make([]float64, n),
		X:   make([]float64, n),
		Piv: make([]int, n),
	}
}
