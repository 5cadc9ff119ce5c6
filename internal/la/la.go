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
// update organised as a cache-friendly i-k-j matrix product.
func FactorBlocked(a *Matrix, piv []int, nb int) error {
	n := a.N
	if nb < 1 {
		nb = DefaultBlockSize
	}
	if nb >= n {
		return Factor(a, piv)
	}
	ad := a.Data
	for k := 0; k < n; k += nb {
		kend := k + nb
		if kend > n {
			kend = n
		}
		// Factor the panel (cols k..kend-1), swaps applied across all cols.
		if err := eliminate(a, piv, nil, k, kend); err != nil {
			return err
		}
		if kend == n {
			break
		}
		// U12 := L11^{-1} A12 — unit lower triangular solve on the block
		// row, done row-by-row so the inner loop streams A12 rows.
		for i := k + 1; i < kend; i++ {
			rowI := ad[i*n : i*n+n]
			for m := k; m < i; m++ {
				l := ad[i*n+m]
				if l == 0 {
					continue
				}
				rowM := ad[m*n : m*n+n]
				for j := kend; j < n; j++ {
					rowI[j] -= l * rowM[j]
				}
			}
		}
		// A22 -= L21 * U12: rank-(kend-k) update with 2x2 register
		// blocking — two target rows share each pass over two U12 rows,
		// quadrupling the flops per load. This is the cache/ILP trick
		// that lets the library-style solver overtake naive elimination
		// once the matrix outgrows L1 (the paper's Table II crossover).
		i := kend
		for ; i+1 < n; i += 2 {
			rowI0 := ad[i*n : i*n+n]
			rowI1 := ad[(i+1)*n : (i+1)*n+n]
			m := k
			for ; m+1 < kend; m += 2 {
				l00, l01 := rowI0[m], rowI0[m+1]
				l10, l11 := rowI1[m], rowI1[m+1]
				rowM0 := ad[m*n : m*n+n]
				rowM1 := ad[(m+1)*n : (m+1)*n+n]
				for j := kend; j < n; j++ {
					a, b := rowM0[j], rowM1[j]
					rowI0[j] -= l00*a + l01*b
					rowI1[j] -= l10*a + l11*b
				}
			}
			if m < kend {
				l0, l1 := rowI0[m], rowI1[m]
				rowM := ad[m*n : m*n+n]
				for j := kend; j < n; j++ {
					a := rowM[j]
					rowI0[j] -= l0 * a
					rowI1[j] -= l1 * a
				}
			}
		}
		if i < n {
			rowI := ad[i*n : i*n+n]
			m := k
			for ; m+1 < kend; m += 2 {
				l0, l1 := rowI[m], rowI[m+1]
				rowM0 := ad[m*n : m*n+n]
				rowM1 := ad[(m+1)*n : (m+1)*n+n]
				for j := kend; j < n; j++ {
					rowI[j] -= l0*rowM0[j] + l1*rowM1[j]
				}
			}
			if m < kend {
				l := rowI[m]
				rowM := ad[m*n : m*n+n]
				for j := kend; j < n; j++ {
					rowI[j] -= l * rowM[j]
				}
			}
		}
	}
	return nil
}

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

// AddScaled accumulates y[i] += w*x[i] (daxpy). The sweep engine's
// ordered flux reduction streams the angular flux through this kernel
// once per ordinate.
func AddScaled(y, x []float64, w float64) {
	x = x[:len(y)]
	for i := range y {
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
	for i := range dst {
		dst[i] = wa*a[i] + wb*b[i] + wc*c[i]
	}
}

// AddScaledTo writes dst[i] = base[i] + w*x[i]: the per-group local
// matrix sigma_t*M added onto a group-independent base in one pass.
func AddScaledTo(dst, base, x []float64, w float64) {
	base = base[:len(dst)]
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = base[i] + w*x[i]
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
