package la

import "fmt"

// Multi-RHS ("batched") solve kernels. The sweep engine's unit of work is
// all energy groups of one (ordinate, element): the local matrices of
// those groups differ only through the sigma_t,g * M term, so groups with
// equal sigma_t share one matrix bitwise and one factorisation serves the
// whole run of them. The routines here solve such a run as a block of k
// right-hand sides against a single matrix, amortising the O(n^3)
// factorisation across the k O(n^2) solves.
//
// Bitwise contract: each column of the block undergoes exactly the
// floating-point operation sequence the scalar routine (SolveFactored,
// SolveGE) would apply to it — the batching only reorders work across
// independent columns, never within one — so a batched solve produces
// bit-identical solutions to k scalar solves of the same matrix. The
// sweep's reproducibility pins rest on this property.
//
// Layout: the block bs holds the k right-hand sides RHS-major — column r
// is the contiguous slice bs[r*n : (r+1)*n] — which is exactly how the
// engine's per-task RHS scratch is laid out (group-major, node fastest).
// The triangular passes iterate row-outer / column-inner so each factor
// row is loaded once per row step and streamed against all k columns.

// SolveFactoredMulti solves A X = B for k right-hand sides given the LU
// factorisation produced by Factor or FactorBlocked. bs (length k*n,
// RHS-major) is overwritten with the solutions. Each column's result is
// bitwise identical to a SolveFactored call on that column alone.
func SolveFactoredMulti(a *Matrix, piv []int, bs []float64, k int) {
	n := a.N
	ad := a.Data
	if k == 1 {
		SolveFactored(a, piv, bs[:n])
		return
	}
	bs = bs[: k*n : k*n]
	// Apply the recorded row interchanges to every column.
	for kk := 0; kk < n; kk++ {
		if p := piv[kk]; p != kk {
			for r := 0; r < k; r++ {
				b := bs[r*n : r*n+n]
				b[kk], b[p] = b[p], b[kk]
			}
		}
	}
	// Forward solve L Y = P B (unit diagonal): row-outer so the factor
	// row ad[i*n:i*n+i] is read once per i and reused across all columns.
	// The head/tail reslices below mirror each range loop's length so the
	// prove pass eliminates the inner-loop bounds checks (check_bce).
	for i := 1; i < n; i++ {
		row := ad[i*n : i*n+i]
		for r := 0; r < k; r++ {
			b := bs[r*n : r*n+n]
			head := b[:len(row)]
			s := b[i]
			for j, v := range row {
				s -= v * head[j]
			}
			b[i] = s
		}
	}
	backSolve(a, bs)
}

// backSolve solves U X = Y in place for the len(bs)/n right-hand sides in
// bs (RHS-major), U the upper triangle eliminate leaves in a. Row-outer,
// column-inner, so each row of U is read once and streamed against every
// column.
func backSolve(a *Matrix, bs []float64) {
	n := a.N
	ad := a.Data
	for i := n - 1; i >= 0; i-- {
		row := ad[i*n : i*n+n]
		inv := row[i]
		tail := row[i+1:]
		for o := 0; o < len(bs); o += n {
			b := bs[o : o+n]
			bt := b[i+1:]
			bt = bt[:len(tail)]
			s := b[i]
			for j, v := range tail {
				s -= v * bt[j]
			}
			b[i] = s / inv
		}
	}
}

// SolveGEMulti solves A X = B for k right-hand sides by Gaussian
// elimination with partial pivoting, running the elimination once and
// carrying all k columns through each row operation. A is overwritten by
// its LU factors; bs (length k*n, RHS-major) is overwritten with the
// solutions. Each column's result is bitwise identical to a SolveGE call
// on a fresh copy of A with that column alone.
func SolveGEMulti(a *Matrix, bs []float64, k int) error {
	if k < 1 || len(bs) != k*a.N {
		return fmt.Errorf("la: SolveGEMulti size mismatch: n=%d k=%d len(bs)=%d", a.N, k, len(bs))
	}
	if err := eliminate(a, nil, bs, 0, a.N); err != nil {
		return err
	}
	backSolve(a, bs)
	return nil
}
