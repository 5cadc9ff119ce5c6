package la

import (
	"fmt"
	"math"
)

// TriSolveLanes runs the triangular solves of w factored systems at once
// (w is 1, 2 or 4). lu holds w n x n LU factors as left by Factor or
// FactorBlocked, lane-interleaved: entry (i, j) of lane l's factor is
// lu[(i*n+j)*w + l]. x holds the w right-hand sides row by row, ldx
// (>= w) apart: entry i of lane l is x[i*ldx + l], already permuted by
// its factorisation's row interchanges (b_l[p_l(i)], p_l the composition
// of the recorded pivots); it is overwritten with the solutions and
// nothing between the rows is touched, so the w lanes may be a column
// stripe of a wider row-major block. Every lane undergoes exactly the
// floating-point operation sequence SolveFactored applies to its system
// — the forward pass subtracts l[i][j]*x[j] in ascending j, the back
// pass u[i][j]*x[j] in ascending j and then divides by u[i][i] — so each
// lane's solution is bitwise SolveFactored's. With AVX2 the lanes of one
// entry are one vector (doc.go, "Vector kernels"); one packed system
// (w = ldx = 1) is row-major and runs contiguous loops (triSolve).
func TriSolveLanes(lu, x []float64, n, w, ldx int) {
	if w != 1 && w != 2 && w != 4 {
		panic(fmt.Sprintf("la: TriSolveLanes width %d, want 1, 2 or 4", w))
	}
	if ldx < w {
		panic(fmt.Sprintf("la: TriSolveLanes row stride %d below width %d", ldx, w))
	}
	if n <= 0 {
		return
	}
	// Index, not reslice: a reslice may run past len up to cap.
	_ = lu[n*n*w-1]
	_ = x[(n-1)*ldx+w-1]
	if useAVX2 && w > 1 {
		triSolveLanesAVX2(lu[:n*n*w], x[:(n-1)*ldx+w], n, w, ldx)
		return
	}
	if w == 1 && ldx == 1 {
		triSolve(lu[:n*n], x[:n])
		return
	}
	for i := 1; i < n; i++ {
		row := lu[i*n*w : i*n*w+i*w]
		for l := 0; l < w; l++ {
			s := x[i*ldx+l]
			for j, o := l, l; j < len(row); j, o = j+w, o+ldx {
				s -= row[j] * x[o]
			}
			x[i*ldx+l] = s
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n*w : (i+1)*n*w]
		for l := 0; l < w; l++ {
			s := x[i*ldx+l]
			for j, o := (i+1)*w+l, (i+1)*ldx+l; j < len(row); j, o = j+w, o+ldx {
				s -= row[j] * x[o]
			}
			x[i*ldx+l] = s / row[i*w+l]
		}
	}
}

// triSolve is TriSolveLanes on one packed system (w = ldx = 1), which is
// row-major: contiguous loops, the operands resliced to the loop lengths
// so the prove pass drops the bounds checks.
func triSolve(lu, x []float64) {
	n := len(x)
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+i]
		head := x[:len(row)]
		s := x[i]
		for j, v := range row {
			s -= v * head[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n+i : i*n+n]
		tail := x[i+1:]
		tail = tail[:len(row)-1]
		s := x[i]
		for j, v := range row[1:] {
			s -= v * tail[j]
		}
		x[i] = s / row[0]
	}
}

// FaceApplyLanes subtracts one face's surface term from w right-hand
// sides at once: for every row r of the nf x nf block fb (row-major,
// nf = len(rows)) and every lane l,
//
//	acc = 0; acc += fb[r][k]*u[k*w + l] for k = 0, 1, ..., nf-1; b[rows[r]*w + l] -= acc
//
// u holds the face's nf upwind values of every lane, node-major (w
// apart), and b the right-hand sides the same way, rows[r] naming the
// row of b that block row r updates. Each product and sum is rounded on
// its own, in that order, so every lane is bitwise the scalar row sum of
// its own right-hand side. With AVX2 and w > 1 it is one kernel call
// (faceApplyLanesAVX2: four block rows per pass in separate
// accumulators, four lanes to a Y register, then two, then one).
func FaceApplyLanes(b, fb, u []float64, rows []int, w int) {
	nf := len(rows)
	if nf == 0 || w <= 0 {
		return
	}
	fb = fb[: nf*nf : nf*nf]
	u = u[: nf*w : nf*w]
	if w == 1 {
		for r, gi := range rows {
			fr := fb[r*nf : r*nf+nf][:len(u)]
			acc := 0.0
			for k, v := range u {
				acc += fr[k] * v
			}
			b[gi] -= acc
		}
		return
	}
	if useAVX2 {
		top := len(b) / w
		for _, gi := range rows {
			if uint(gi) >= uint(top) {
				panic(fmt.Sprintf("la: FaceApplyLanes row %d outside %d rows", gi, top))
			}
		}
		faceApplyLanesAVX2(b, fb, u, rows, w)
		return
	}
	for r, gi := range rows {
		fr := fb[r*nf : r*nf+nf]
		bi := b[gi*w : gi*w+w]
		for l := range bi {
			acc := 0.0
			for k, m := range fr {
				acc += m * u[k*w+l]
			}
			bi[l] -= acc
		}
	}
}

// FactorLanes factors w n x n systems at once (w is 1, 2 or 4), in
// place, in TriSolveLanes' layout: entry (i, j) of lane l's matrix is
// lu[(i*n+j)*w + l]. Each lane's composed row permutation — the identity
// with the recorded interchanges applied in step order, so entry i of
// the permuted right-hand side is b[perm[i]] — goes to perm[l*n:(l+1)*n].
// Every lane runs Factor's operation sequence on its own system: the
// first strict maximum of |a[i][k]| (a NaN never displaces the
// incumbent), a whole-row exchange, the multiplier a[i][k]*(1/a[k][k])
// and a[i][j] -= l*a[k][j] skipped where l == 0 — so each lane's factor
// and permutation are bitwise Factor's (and FactorBlocked's) with its
// pivots composed. It returns ErrSingular if any lane meets a pivot
// column that is exactly zero, which happens exactly when Factor fails
// on some lane's system; the contents of lu and perm are then
// unspecified. With AVX2 the lanes of one entry are one vector and the
// whole factorisation is one kernel call: below n = 16 steps go in
// pairs, each lower row taking a pair's two row operations in one pass;
// from n = 16 they go in panels of four pivot columns, each lower row
// taking a panel's four row operations in one pass, in Z registers where
// the CPU has AVX-512F. Each entry's operations keep their order and
// operands, so neither grouping moves a bit (doc.go, "Vector kernels").
// One system (w = 1) is row-major: it runs Factor's own loop, eliminate,
// with perm as the pivot record, and composes that record in place.
func FactorLanes(lu []float64, perm []int, n, w int) error {
	if w != 1 && w != 2 && w != 4 {
		panic(fmt.Sprintf("la: FactorLanes width %d, want 1, 2 or 4", w))
	}
	if n <= 0 {
		return nil
	}
	// Index, not reslice: a reslice may run past len up to cap.
	_ = lu[n*n*w-1]
	_ = perm[n*w-1]
	if w == 1 {
		// One system is row-major: Factor's own loop, its pivot record
		// composed in place.
		m := Matrix{N: n, Data: lu[:n*n]}
		if err := eliminate(&m, perm[:n], nil, 0, n); err != nil {
			return err
		}
		composePivots(perm[:n])
		return nil
	}
	for i := range perm[:n*w] {
		perm[i] = i % n
	}
	if useAVX2 {
		var singular int
		if n < blockedMinN {
			singular = factorLanesPaired(lu[:n*n*w], perm[:n*w], n, w)
		} else {
			singular = factorLanesBlocked(lu[:n*n*w], perm[:n*w], n, w, useAVX512)
		}
		if singular != 0 {
			return ErrSingular
		}
		return nil
	}
	rs := n * w // one row of all lanes
	var inv [4]float64
	for k := 0; k < n; k++ {
		rk := lu[k*rs : k*rs+rs]
		for l := 0; l < w; l++ {
			p, pv := k, math.Abs(rk[k*w+l])
			for i, o := k+1, (k+1)*rs+k*w+l; i < n; i, o = i+1, o+rs {
				if v := math.Abs(lu[o]); v > pv {
					p, pv = i, v
				}
			}
			if pv == 0 {
				return ErrSingular
			}
			if p != k {
				rp := lu[p*rs : p*rs+rs]
				for j := l; j < rs; j += w {
					rk[j], rp[j] = rp[j], rk[j]
				}
				pl := perm[l*n : l*n+n]
				pl[k], pl[p] = pl[p], pl[k]
			}
			inv[l] = 1 / rk[k*w+l]
		}
		for i := k + 1; i < n; i++ {
			ri := lu[i*rs : i*rs+rs]
			for l := 0; l < w; l++ {
				m := ri[k*w+l] * inv[l]
				ri[k*w+l] = m
				if m == 0 {
					continue
				}
				for j := (k+1)*w + l; j < rs; j += w {
					ri[j] -= m * rk[j]
				}
			}
		}
	}
	return nil
}

// composePivots turns a pivot record (p[k] the row exchanged with row k
// at step k) into the composed row permutation, in place: entry i of the
// permuted right-hand side is b[p[i]]. Step k exchanges rows k and
// p[k] >= k, so row i's entry comes through steps i, i-1, ..., 0 only;
// walking i down, each record is read for the last time before it is
// overwritten.
func composePivots(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		x := p[i]
		for k := i - 1; k >= 0; k-- {
			switch x {
			case k:
				x = p[k]
			case p[k]:
				x = k
			}
		}
		p[i] = x
	}
}

// AddScaledToLanes forms len(w) matrices at once in FactorLanes' layout:
// dst[i*len(w) + l] = base[l][i] + w[l]*x[i], each lane bitwise
// AddScaledTo(dst_l, base[l], x, w[l]). len(w) is 1, 2 or 4, base holds
// one matrix per lane (lanes may share one), and x and every base have
// the length of one matrix, dst len(w) times that. With AVX2 and
// len(w) > 1 the entries go four at a time (addScaledToLanesAVX2: each
// lane's four sums formed in one vector, then transposed into the
// interleaved layout); the len(x) mod 4 left over run the loop below.
func AddScaledToLanes(dst []float64, base [][]float64, x, w []float64) {
	nw := len(w)
	if nw != 1 && nw != 2 && nw != 4 {
		panic(fmt.Sprintf("la: AddScaledToLanes width %d, want 1, 2 or 4", nw))
	}
	if len(base) != nw {
		panic(fmt.Sprintf("la: AddScaledToLanes has %d bases for %d lanes", len(base), nw))
	}
	m := len(x)
	for _, b := range base {
		if len(b) != m {
			panic(fmt.Sprintf("la: AddScaledToLanes base of %d entries, x of %d", len(b), m))
		}
	}
	dst = dst[:m*nw]
	if nw == 1 {
		AddScaledTo(dst, base[0], x, w[0])
		return
	}
	i := 0
	if useAVX2 && m >= 4 {
		i = m &^ 3
		addScaledToLanesAVX2(dst, base, x[:i], w)
	}
	for ; i < m; i++ {
		d := dst[i*nw : i*nw+nw]
		for l, wl := range w[:len(d)] {
			d[l] = base[l][i] + wl*x[i]
		}
	}
}

// FaceApplyLanesPerLane is FaceApplyLanes with a block per lane: fb holds
// w nf x nf blocks lane-interleaved, entry (r, k) of lane l at
// fb[(r*nf+k)*w + l], and for every row r and lane l
//
//	acc = 0; acc += fb_l[r][k]*u[k*w + l] for k = 0, 1, ..., nf-1; b[rows[r]*w + l] -= acc
//
// each product and sum rounded on its own, in that order, so every lane
// is bitwise the scalar row sum of its own block and right-hand side
// (FaceApplyLanes on that lane alone). w is 1, 2 or 4. With AVX2 and
// w > 1 it is one kernel call (faceApplyLanesPerLaneAVX2: four block rows
// per pass in separate accumulators sharing each load of u, the w lanes
// one Y or X register).
func FaceApplyLanesPerLane(b, fb, u []float64, rows []int, w int) {
	if w != 1 && w != 2 && w != 4 {
		panic(fmt.Sprintf("la: FaceApplyLanesPerLane width %d, want 1, 2 or 4", w))
	}
	nf := len(rows)
	if nf == 0 {
		return
	}
	if w == 1 {
		FaceApplyLanes(b, fb, u, rows, 1)
		return
	}
	fb = fb[: nf*nf*w : nf*nf*w]
	u = u[: nf*w : nf*w]
	if useAVX2 {
		top := len(b) / w
		for _, gi := range rows {
			if uint(gi) >= uint(top) {
				panic(fmt.Sprintf("la: FaceApplyLanesPerLane row %d outside %d rows", gi, top))
			}
		}
		faceApplyLanesPerLaneAVX2(b, fb, u, rows, w)
		return
	}
	for r, gi := range rows {
		fr := fb[r*nf*w : (r+1)*nf*w]
		bi := b[gi*w : gi*w+w]
		for l := range bi {
			acc := 0.0
			for k := 0; k < nf; k++ {
				acc += fr[k*w+l] * u[k*w+l]
			}
			bi[l] -= acc
		}
	}
}
