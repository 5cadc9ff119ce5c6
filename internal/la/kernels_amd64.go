package la

// useAVX2 selects the vector kernels of kernels_amd64.s. It is set once,
// here, from what the CPU and the operating system report; nothing
// outside this package's tests can change it.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// has them (CPUID leaf 7) and the operating system saves the YMM state
// (leaf 1 OSXSAVE + AVX, XCR0 bits 1 and 2).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func update2AVX2(ad []float64, n, k, c, k1, i0, rows int)

//go:noescape
func addScaledAVX2(y, x []float64, w float64)

//go:noescape
func addScaledToAVX2(dst, base, x []float64, w float64)

//go:noescape
func fuse3AVX2(dst, a, b, c []float64, wa, wb, wc float64)

//go:noescape
func mulTNAVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb, n, k int)

//go:noescape
func triSolveLanesAVX2(lu, x []float64, n, w, ldx int)

//go:noescape
func factorLanesAVX2(lu []float64, perm []int, n, w int) int

//go:noescape
func addScaledToLanesAVX2(dst, base, x, w []float64)

//go:noescape
func faceApplyLanesAVX2(b, fb, u []float64, rows []int, w int)
