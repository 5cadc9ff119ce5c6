package la

// useAVX2 selects the vector kernels of kernels_amd64.s, and useAVX512
// their Z-register form where one exists (the blocked FactorLanes'
// closing pass). Both are set once, here, from what the CPU and the
// operating system report; blockedMinN is the smallest n whose lane
// factorisation takes the blocked kernel rather than the paired one.
// Nothing outside this package's tests can change them.
var (
	useAVX2     = detectAVX2()
	useAVX512   = useAVX2 && detectAVX512()
	blockedMinN = 16
)

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

// detectAVX512 reports whether AVX-512F instructions may be executed: the
// CPU has them (CPUID leaf 7 EBX bit 16) and the operating system saves
// the opmask and ZMM state besides the YMM state (XCR0 bits 1, 2 and
// 5-7). Only AVX-512F is used: Z registers, opmasks and the masked forms.
func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
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
func factorLanesPaired(lu []float64, perm []int, n, w int) int

//go:noescape
func factorLanesBlocked(lu []float64, perm []int, n, w int, zmm bool) int

//go:noescape
func addScaledToLanesAVX2(dst []float64, base [][]float64, x, w []float64)

//go:noescape
func faceApplyLanesAVX2(b, fb, u []float64, rows []int, w int)

//go:noescape
func faceApplyLanesPerLaneAVX2(b, fb, u []float64, rows []int, w int)
