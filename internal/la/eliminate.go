package la

import (
	"fmt"
	"math"
)

// eliminate is the package's one Gaussian-elimination loop: pivot steps
// k0..k1-1 of LU with partial pivoting, in place. Multipliers are stored
// below the diagonal and swaps exchange whole rows, so a swap carries a
// row's multipliers (and any update still owed to it) along. piv, when
// non-nil, records the row exchanged with row k at step k; b, when not
// empty, is one right-hand side of length n carried through the same row
// operations (SolveGE's; the factorisations pass none). Only columns
// below k1 are updated:
// k1 < n factors a panel whose trailing update is FactorBlocked's.
//
// Steps go two at a time: step k touches only column k+1 (all the next
// pivot search needs), and once step k+1 has its pivot both row
// operations reach the trailing block in one pass over four rows that
// share each load of the two pivot rows (pairUpdate; four columns wide
// where the CPU has AVX2). Each element still has step k's term
// subtracted, rounded, then step k+1's, and a zero multiplier still
// leaves its row untouched (x - 0*y is not x when x is -0 or y is not
// finite), so the result is bitwise that of the textbook loops
// (geReference, factorReference in la_test.go); doc.go has the argument.
func eliminate(a *Matrix, piv []int, b []float64, k0, k1 int) error {
	n := a.N
	if (piv != nil || len(b) == 0) && len(piv) != n {
		return fmt.Errorf("la: pivot length %d, want %d", len(piv), n)
	}
	ad := a.Data[:n*n]
	var inv float64 // 1/pivot of the latest step
	for k := k0; k < k1; k++ {
		// owed: step k-1 opened this pair and has so far done nothing
		// but pick its pivot.
		owed := (k-k0)&1 == 1
		var err error
		if inv, err = pivot(ad, n, k, owed, inv, piv, b); err != nil {
			return err
		}
		if !owed && k+1 < k1 {
			continue // first step of a pair: the next pass finishes it
		}
		for o := (k+1)*n + k; o < len(ad); o += n {
			ad[o] *= inv
		}
		if owed {
			update2(ad, n, k, k1, b)
			continue
		}
		// Unpaired last step: no column below k1 is left, only the
		// right-hand sides.
		for i := k + 1; i < n; i++ {
			rowSub(ad, n, b, i, k, k1, k1)
		}
	}
	return nil
}

// pivot opens step k. If step k-1 is owed (inv is the reciprocal of its
// pivot) a pass down column k first stores that step's multipliers beside
// it and applies its row operation to this column alone. pivot then finds
// the largest |a[i][k]|, i >= k, fails with ErrSingular if that is zero,
// records and performs the row exchange (whole rows, and the right-hand
// side) and returns the reciprocal of the pivot.
func pivot(ad []float64, n, k int, owed bool, inv float64, piv []int, b []float64) (float64, error) {
	if owed {
		u := ad[(k-1)*n+k]
		for o := k*n + k; o < len(ad); o += n {
			l := ad[o-1] * inv
			ad[o-1] = l
			if l != 0 {
				ad[o] -= l * u
			}
		}
	}
	p, pv := k, math.Abs(ad[k*n+k])
	for i, o := k+1, (k+1)*n+k; o < len(ad); i, o = i+1, o+n {
		if v := math.Abs(ad[o]); v > pv {
			pv = v
			p = i
		}
	}
	if pv == 0 {
		return 0, ErrSingular
	}
	if piv != nil {
		piv[k] = p
	}
	if p != k {
		rowK := ad[k*n : k*n+n]
		rowP := ad[p*n : p*n+n]
		rowP = rowP[:len(rowK)]
		for j, v := range rowK {
			rowK[j], rowP[j] = rowP[j], v
		}
		if len(b) > 0 {
			b[k], b[p] = b[p], b[k]
		}
	}
	return 1 / ad[k*n+k], nil
}

// update2 closes a pair: with the multipliers of steps k-1 and k stored,
// it applies both row operations to columns k+1..k1-1 of every row below
// k and to the right-hand side.
func update2(ad []float64, n, k, k1 int, b []float64) {
	// The pivot row itself owes step k-1 only.
	c := k + 1
	rowSub(ad, n, b, k, k-1, c, k1)
	pairUpdate(ad, n, b, k, c, k1, c, n)
}

// minUpdateWidth is the narrowest column range pairUpdate hands to the
// vector kernel: one full vector. Measured on the ledger's 2.1 GHz Xeon
// (Factor, ns, thresholds 1 / 4 / 8 / 16): n = 27 2240 / 2225 / 2340 /
// 2450 against 3610 on the Go loops; n = 8 258 / 263 / 287 / 271 against
// 280 — the call costs a small system nothing, and below four columns
// the kernel would run its one-column form only.
const minUpdateWidth = 4

// pairUpdate applies steps k-1 and k (multipliers stored) to columns
// lo..hi-1 of rows i0..i1-1 and to the right-hand side, four rows to a
// pass: the leading rows whose multipliers are all non-zero go to
// update2AVX2 where the CPU has it, everything else — narrow column
// ranges, blocks holding an exact-zero multiplier (which must skip, not
// subtract 0*y), the rows a block of four leaves over — through the Go
// loops below, which are also the whole path on other CPUs.
func pairUpdate(ad []float64, n int, b []float64, k, lo, hi, i0, i1 int) {
	i := i0
	if useAVX2 && hi-lo >= minUpdateWidth {
		rows := 0
		for o := i0*n + k; rows < i1-i0 && ad[o-1] != 0 && ad[o] != 0; o += n {
			rows++
		}
		if rows &^= 3; rows > 0 {
			update2AVX2(ad, n, k, lo, hi, i0, rows)
			i += rows
			// The right-hand side stays scalar: one entry per row.
			for r := i0; r < i && len(b) > 0; r++ {
				rhsSub2(b, r, k, ad[r*n+k-1], ad[r*n+k])
			}
		}
	}
	p0 := ad[(k-1)*n+lo : (k-1)*n+hi]
	p1 := ad[k*n+lo : k*n+hi]
	p1 = p1[:len(p0)]
	for ; i+3 < i1; i += 4 {
		r0 := ad[i*n : i*n+n]
		r1 := ad[(i+1)*n : (i+1)*n+n]
		r2 := ad[(i+2)*n : (i+2)*n+n]
		r3 := ad[(i+3)*n : (i+3)*n+n]
		l00, l01 := r0[k-1], r0[k]
		l10, l11 := r1[k-1], r1[k]
		l20, l21 := r2[k-1], r2[k]
		l30, l31 := r3[k-1], r3[k]
		if l00 == 0 || l01 == 0 || l10 == 0 || l11 == 0 ||
			l20 == 0 || l21 == 0 || l30 == 0 || l31 == 0 {
			for ii := i; ii < i+4; ii++ {
				rowSub2(ad, n, b, ii, k, lo, hi)
			}
			continue
		}
		// Trailing reslices are length-matched to p0 so the prove pass
		// drops the inner loop's bounds checks (check_bce).
		t0, t1, t2, t3 := r0[lo:hi], r1[lo:hi], r2[lo:hi], r3[lo:hi]
		t0, t1, t2, t3 = t0[:len(p0)], t1[:len(p0)], t2[:len(p0)], t3[:len(p0)]
		for j, u := range p0 {
			v := p1[j]
			t0[j] = t0[j] - l00*u - l01*v
			t1[j] = t1[j] - l10*u - l11*v
			t2[j] = t2[j] - l20*u - l21*v
			t3[j] = t3[j] - l30*u - l31*v
		}
		if len(b) > 0 {
			u, v := b[k-1], b[k]
			bi := b[i : i+4]
			bi[0] = bi[0] - l00*u - l01*v
			bi[1] = bi[1] - l10*u - l11*v
			bi[2] = bi[2] - l20*u - l21*v
			bi[3] = bi[3] - l30*u - l31*v
		}
	}
	for ; i < i1; i++ {
		rowSub2(ad, n, b, i, k, lo, hi)
	}
}

// rowSub applies pivot step k's row operation to row i over columns
// lo..hi-1 and to the right-hand side: a[i][j] -= l*a[k][j] with
// l = a[i][k] the stored multiplier. A zero multiplier leaves the row
// untouched.
func rowSub(ad []float64, n int, b []float64, i, k, lo, hi int) {
	l := ad[i*n+k]
	if l == 0 {
		return
	}
	src := ad[k*n+lo : k*n+hi]
	dst := ad[i*n+lo : i*n+hi]
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] -= l * v
	}
	if len(b) > 0 {
		b[i] -= l * b[k]
	}
}

// rowSub2 applies steps k-1 and k to row i, in that order per element:
// the one-row form of the blocked update, for the rows a block of four
// leaves over and for blocks that hold a zero multiplier.
func rowSub2(ad []float64, n int, b []float64, i, k, lo, hi int) {
	l0, l1 := ad[i*n+k-1], ad[i*n+k]
	if l0 == 0 || l1 == 0 {
		rowSub(ad, n, b, i, k-1, lo, hi)
		rowSub(ad, n, b, i, k, lo, hi)
		return
	}
	p0 := ad[(k-1)*n+lo : (k-1)*n+hi]
	p1 := ad[k*n+lo : k*n+hi]
	dst := ad[i*n+lo : i*n+hi]
	p1, dst = p1[:len(p0)], dst[:len(p0)]
	for j, u := range p0 {
		dst[j] = dst[j] - l0*u - l1*p1[j]
	}
	rhsSub2(b, i, k, l0, l1)
}

// rhsSub2 applies steps k-1 and k, multipliers l0 and l1, to entry i of
// the right-hand side, if there is one.
func rhsSub2(b []float64, i, k int, l0, l1 float64) {
	if len(b) > 0 {
		b[i] = b[i] - l0*b[k-1] - l1*b[k]
	}
}
