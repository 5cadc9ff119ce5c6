package la

import "fmt"

// TriSolveLanes runs the triangular solves of w factored systems at once
// (w is 1, 2 or 4). lu holds w n x n LU factors as left by Factor or
// FactorBlocked, lane-interleaved: entry (i, j) of lane l's factor is
// lu[(i*n+j)*w + l]. x holds the w right-hand sides the same way,
// x[i*w + l], each already permuted by its factorisation's row
// interchanges (entry i of lane l is b_l[p_l(i)], p_l the composition of
// the recorded pivots); it is overwritten with the solutions. Every lane
// undergoes exactly the floating-point operation sequence SolveFactored
// applies to its system — the forward pass subtracts l[i][j]*x[j] in
// ascending j, the back pass u[i][j]*x[j] in ascending j and then divides
// by u[i][i] — so each lane's solution is bitwise SolveFactored's. With
// AVX2 the lanes of one entry are one vector (doc.go, "Vector kernels").
func TriSolveLanes(lu, x []float64, n, w int) {
	if w != 1 && w != 2 && w != 4 {
		panic(fmt.Sprintf("la: TriSolveLanes width %d, want 1, 2 or 4", w))
	}
	if n <= 0 {
		return
	}
	// Index, not reslice: a reslice may run past len up to cap.
	_ = lu[n*n*w-1]
	_ = x[n*w-1]
	if useAVX2 && w > 1 {
		triSolveLanesAVX2(lu[:n*n*w], x[:n*w], n, w)
		return
	}
	for i := 1; i < n; i++ {
		row := lu[i*n*w : i*n*w+i*w]
		for l := 0; l < w; l++ {
			s := x[i*w+l]
			for j := l; j < len(row); j += w {
				s -= row[j] * x[j]
			}
			x[i*w+l] = s
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n*w : (i+1)*n*w]
		for l := 0; l < w; l++ {
			s := x[i*w+l]
			for j := (i+1)*w + l; j < len(row); j += w {
				s -= row[j] * x[j]
			}
			x[i*w+l] = s / row[i*w+l]
		}
	}
}
