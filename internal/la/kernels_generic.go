//go:build !amd64

package la

// useAVX2 and useAVX512 are false wherever kernels_amd64.s is not built:
// the pure-Go loops are the only path and the calls below are dead code.
const (
	useAVX2     = false
	useAVX512   = false
	blockedMinN = 0
)

func update2AVX2(ad []float64, n, k, c, k1, i0, rows int)  { panic("la: no vector kernels") }
func addScaledAVX2(y, x []float64, w float64)              { panic("la: no vector kernels") }
func addScaledToAVX2(dst, base, x []float64, w float64)    { panic("la: no vector kernels") }
func fuse3AVX2(dst, a, b, c []float64, wa, wb, wc float64) { panic("la: no vector kernels") }
func mulTNAVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb, n, k int) {
	panic("la: no vector kernels")
}
func triSolveLanesAVX2(lu, x []float64, n, w, ldx int)         { panic("la: no vector kernels") }
func factorLanesPaired(lu []float64, perm []int, n, w int) int { panic("la: no vector kernels") }
func factorLanesBlocked(lu []float64, perm []int, n, w int, zmm bool) int {
	panic("la: no vector kernels")
}
func addScaledToLanesAVX2(dst []float64, base [][]float64, x, w []float64) {
	panic("la: no vector kernels")
}
func faceApplyLanesAVX2(b, fb, u []float64, rows []int, w int) { panic("la: no vector kernels") }
func faceApplyLanesPerLaneAVX2(b, fb, u []float64, rows []int, w int) {
	panic("la: no vector kernels")
}
