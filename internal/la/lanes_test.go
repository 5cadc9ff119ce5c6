package la

import (
	"math"
	"math/rand"
	"testing"
)

// lanePanel interleaves w factored systems into TriSolveLanes' layout:
// the factors as lu[(i*n+j)*w + l] and each right-hand side permuted by
// the composition of its recorded row interchanges, x[i*w + l].
func lanePanel(facs []*Matrix, pivs [][]int, bs [][]float64) (lu, x []float64) {
	w, n := len(facs), facs[0].N
	lu = make([]float64, n*n*w)
	x = make([]float64, n*w)
	perm := make([]int, n)
	for l, f := range facs {
		for i, v := range f.Data {
			lu[i*w+l] = v
		}
		for i := range perm {
			perm[i] = i
		}
		for k, p := range pivs[l] {
			perm[k], perm[p] = perm[p], perm[k]
		}
		for i, p := range perm {
			x[i*w+l] = bs[l][p]
		}
	}
	return lu, x
}

// checkTriSolveLanes factors w systems and holds every lane of
// TriSolveLanes to SolveFactored on that lane's system alone, bit for
// bit, on each kernel path, and the paths to each other. The solution
// sits in a poisoned slab that must keep its poison outside the window,
// and the factors must come back unchanged. It reports false, having
// checked nothing, when a matrix is singular.
func checkTriSolveLanes(t *testing.T, mats []*Matrix, bs [][]float64) bool {
	t.Helper()
	w, n := len(mats), mats[0].N
	facs := make([]*Matrix, w)
	pivs := make([][]int, w)
	want := make([][]float64, w)
	for l, m := range mats {
		facs[l] = NewMatrix(n)
		facs[l].CopyFrom(m)
		pivs[l] = make([]int, n)
		if Factor(facs[l], pivs[l]) != nil {
			return false
		}
		want[l] = append([]float64(nil), bs[l]...)
		SolveFactored(facs[l], pivs[l], want[l])
	}
	lu, x0 := lanePanel(facs, pivs, bs)
	keep := append([]float64(nil), lu...)
	var first []float64
	off := 0 // the paths see the slab at different alignments
	eachKernelPath(t, func(path string) {
		off++
		x, slab := poisoned(len(x0), off)
		copy(x, x0)
		TriSolveLanes(lu, x, n, w)
		for l := range mats {
			for i := 0; i < n; i++ {
				if math.Float64bits(x[i*w+l]) != math.Float64bits(want[l][i]) {
					t.Fatalf("n=%d w=%d lane %d row %d (%s): %v, SolveFactored %v", n, w, l, i, path, x[i*w+l], want[l][i])
				}
			}
		}
		if !untouched(slab, len(x0), off) {
			t.Fatalf("n=%d w=%d (%s): wrote outside the right-hand sides", n, w, path)
		}
		if !sameBits(lu, keep) {
			t.Fatalf("n=%d w=%d (%s): factors modified", n, w, path)
		}
		if first == nil {
			first = append([]float64(nil), x...)
		} else if !sameBits(x, first) {
			t.Fatalf("n=%d w=%d: %s path differs from the generic path", n, w, path)
		}
	})
	return true
}

// TestTriSolveLanesBitwise: every width at sizes on both sides of the
// task kernel's n = 8, 27, 64 and 125, with matrices whose largest
// first-column entry sits in the last row, so partial pivoting swaps rows
// at least once in every lane.
func TestTriSolveLanesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, w := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 3, 8, 27, 64, 125} {
			mats := make([]*Matrix, w)
			bs := make([][]float64, w)
			for l := range mats {
				mats[l] = NewMatrix(n)
				for i := range mats[l].Data {
					mats[l].Data[i] = rng.NormFloat64()
				}
				if n > 1 {
					mats[l].Set(n-1, 0, float64(10*n))
				}
				bs[l] = make([]float64, n)
				for i := range bs[l] {
					bs[l][i] = rng.NormFloat64()
				}
			}
			if !checkTriSolveLanes(t, mats, bs) {
				t.Fatalf("n=%d w=%d: singular test matrix", n, w)
			}
		}
	}
}

// FuzzTriSolveLanesBitwise draws the size, the width and every entry of
// every lane's matrix and right-hand side (the elimination suite's
// specials among them, so the pivots are whatever partial pivoting picks)
// and holds each lane to SolveFactored; singular draws are skipped.
func FuzzTriSolveLanesBitwise(f *testing.F) {
	for _, n := range []int{3, 8, 13} {
		for _, data := range elimCases(n, 4, int64(n)) {
			f.Add(uint8(n), uint8(2), data)
		}
	}
	f.Fuzz(func(t *testing.T, n, w uint8, data []byte) {
		nn, ww := 1+int(n%40), []int{1, 2, 4}[w%3]
		mats := make([]*Matrix, ww)
		bs := make([][]float64, ww)
		for l := range mats {
			// Each lane reads the bytes from its own offset on.
			var d []byte
			if len(data) > 0 {
				s := l * (nn*nn + nn) % len(data)
				d = append(append(d, data[s:]...), data[:s]...)
			}
			mats[l], bs[l] = elimSystem(nn, 1, d)
		}
		checkTriSolveLanes(t, mats, bs)
	})
}
