package la

import (
	"math"
	"math/rand"
	"slices"
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

// laneNaN is the NaN the hardware itself generates (0/0 at run time, not
// a constant the compiler could fold). When both operands of a multiply
// are NaN the result carries one of their payloads, and which one depends
// on the operand order the compiler picks; feeding in only the NaN every
// invalid operation produces keeps each NaN result's bits defined.
var laneNaN = func() float64 { zero := 0.0; return zero / zero }()

// laneValue maps a fuzz byte to a matrix entry: elimValue's values
// (both zeros, subnormals, 4099, sevenths and eighths) and, for three
// bytes of the 256, +Inf, -Inf and NaN.
func laneValue(b byte) float64 {
	switch b {
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	case 7:
		return laneNaN
	}
	return elimValue(b)
}

// checkFactorLanes factors the w matrices of mats lane-interleaved on
// each kernel path and holds FactorLanes to Factor on every lane: it
// fails iff some lane's Factor fails, and otherwise every lane's factor
// is Factor's bit for bit and its permutation Factor's pivots composed.
// The panel sits in poisoned slabs that must keep their poison outside
// the window, and the paths must agree with each other. It reports
// whether the panel was singular.
func checkFactorLanes(t *testing.T, mats []*Matrix) bool {
	t.Helper()
	w, n := len(mats), mats[0].N
	want := make([]*Matrix, w)
	wantPerm := make([]int, w*n)
	singular := false
	for l, m := range mats {
		want[l] = NewMatrix(n)
		want[l].CopyFrom(m)
		piv := make([]int, n)
		if Factor(want[l], piv) != nil {
			singular = true
			continue
		}
		perm := wantPerm[l*n : l*n+n]
		for i := range perm {
			perm[i] = i
		}
		for k, p := range piv {
			perm[k], perm[p] = perm[p], perm[k]
		}
	}
	src := make([]float64, n*n*w)
	for l, m := range mats {
		for i, v := range m.Data {
			src[i*w+l] = v
		}
	}
	var first []float64
	off := 0
	eachKernelPath(t, func(path string) {
		off++
		lu, slab := poisoned(len(src), off)
		copy(lu, src)
		permSlab := make([]int, n*w+2*guard)
		for i := range permSlab {
			permSlab[i] = -7
		}
		perm := permSlab[guard : guard+n*w : guard+n*w]
		err := FactorLanes(lu, perm, n, w)
		for i, p := range permSlab {
			if (i < guard || i >= guard+n*w) && p != -7 {
				t.Fatalf("n=%d w=%d (%s): wrote outside the permutations", n, w, path)
			}
		}
		if !untouched(slab, len(src), off) {
			t.Fatalf("n=%d w=%d (%s): wrote outside the panel", n, w, path)
		}
		if singular {
			if err != ErrSingular {
				t.Fatalf("n=%d w=%d (%s): a lane's Factor fails, FactorLanes returned %v", n, w, path, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("n=%d w=%d (%s): %v, but every lane's Factor succeeds", n, w, path, err)
		}
		for l := range mats {
			for i, v := range want[l].Data {
				if math.Float64bits(lu[i*w+l]) != math.Float64bits(v) {
					t.Fatalf("n=%d w=%d lane %d entry (%d, %d) (%s): %v, Factor %v", n, w, l, i/n, i%n, path, lu[i*w+l], v)
				}
			}
		}
		if !slices.Equal(perm, wantPerm) {
			t.Fatalf("n=%d w=%d (%s): permutations %v, Factor's pivots composed %v", n, w, path, perm, wantPerm)
		}
		if first == nil {
			first = append([]float64(nil), lu...)
		} else if !sameBits(lu, first) {
			t.Fatalf("n=%d w=%d: %s path differs from the generic path", n, w, path)
		}
	})
	return singular
}

// TestFactorLanesBitwise: every width at sizes on both sides of the task
// kernel's n = 8, 27, 64 and 125, on panels built so the lanes disagree —
// lanes that pivot on different rows (each lane's largest first-column
// entry in its own row, dense random matrices under it), exact-zero
// multipliers in some lanes only, the specials (both zeros, subnormals,
// the infinities, NaN) and one singular lane, early or late.
func TestFactorLanesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	random := func(n int) []byte {
		d := make([]byte, n*n)
		for i := range d {
			d[i] = byte(8 + rng.Intn(248))
		}
		return d
	}
	mat := func(n int, d []byte) *Matrix {
		m := NewMatrix(n)
		for i := range m.Data {
			m.Data[i] = laneValue(d[i])
		}
		return m
	}
	elim := func(n int, d []byte) *Matrix {
		m, _ := elimSystem(n, 0, d)
		return m
	}
	cases := map[string]func(n, l int) *Matrix{
		"pivots": func(n, l int) *Matrix {
			// |entries| <= 128/7 < 10n for n >= 2, so lane l's first
			// pivot is row n-1-l.
			m := mat(n, random(n))
			m.Set((n-1-l+n)%n, 0, float64(10*n))
			return m
		},
		"zero-lanes": func(n, l int) *Matrix {
			c := elimCases(n, 0, int64(n+l))
			if l%2 == 0 {
				return elim(n, c["zero-mixed"])
			}
			return elim(n, c["swaps"])
		},
		"specials": func(n, l int) *Matrix {
			d := random(n)
			for i := range d {
				if rng.Intn(4) == 0 {
					d[i] = byte(rng.Intn(8))
				}
			}
			return mat(n, d)
		},
		"negzero": func(n, l int) *Matrix { return elim(n, elimCases(n, 0, int64(3*n+l))["negzero"]) },
		"singular-early": func(n, l int) *Matrix {
			c := elimCases(n, 0, int64(n+l))
			if l == 1 && n > 1 {
				return elim(n, c["singular-column"])
			}
			return elim(n, c["swaps"])
		},
		"singular-late": func(n, l int) *Matrix {
			// A zero row never wins a pivot search, so it is left to
			// the last step.
			m := elim(n, elimCases(n, 0, int64(n+l))["dominant"])
			if l == 0 && n > 1 {
				clear(m.Data[n/2*n : n/2*n+n])
			}
			return m
		},
	}
	for _, w := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 3, 5, 8, 27, 64, 125} {
			for name, build := range cases {
				mats := make([]*Matrix, w)
				for l := range mats {
					mats[l] = build(n, l)
				}
				singular := checkFactorLanes(t, mats)
				if want := name == "singular-early" && n > 1 && w > 1 || name == "singular-late" && n > 1; want && !singular {
					t.Fatalf("%s n=%d w=%d: no lane is singular", name, n, w)
				}
			}
		}
	}
}

// FuzzFactorLanesBitwise draws the size, the width and every entry of
// every lane's matrix (laneValue's specials among them) and holds each
// lane to Factor, singular draws included.
func FuzzFactorLanesBitwise(f *testing.F) {
	for _, n := range []int{3, 8, 13} {
		for _, data := range elimCases(n, 0, int64(n)) {
			f.Add(uint8(n), uint8(2), data)
		}
	}
	f.Fuzz(func(t *testing.T, n, w uint8, data []byte) {
		nn, ww := 1+int(n%40), []int{1, 2, 4}[w%3]
		mats := make([]*Matrix, ww)
		for l := range mats {
			mats[l] = NewMatrix(nn)
			for i := range mats[l].Data {
				if len(data) > 0 {
					mats[l].Data[i] = laneValue(data[(l*nn*nn+i)%len(data)])
				}
			}
		}
		checkFactorLanes(t, mats)
	})
}

// TestAddScaledToLanesBitwise holds every lane of AddScaledToLanes to
// AddScaledTo with that lane's weight, bit for bit, on both kernel paths,
// for every width and lengths around the vector width, writing nothing
// outside the destination.
func TestAddScaledToLanesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	lengths := []int{4096}
	for n := 0; n <= 20; n++ {
		lengths = append(lengths, n)
	}
	for _, nw := range []int{1, 2, 4} {
		for _, n := range lengths {
			base := make([]float64, n)
			x := make([]float64, n)
			for i := range base {
				base[i], x[i] = elementValue(rng), elementValue(rng)
			}
			w := make([]float64, nw)
			for l := range w {
				w[l] = elementValue(rng)
			}
			want := make([]float64, n*nw)
			lane := make([]float64, n)
			for l, wl := range w {
				AddScaledTo(lane, base, x, wl)
				for i, v := range lane {
					want[i*nw+l] = v
				}
			}
			off := 0
			eachKernelPath(t, func(path string) {
				off++
				dst, slab := poisoned(n*nw, off)
				AddScaledToLanes(dst, base, x, w)
				if !sameBits(dst, want) {
					t.Fatalf("w=%d n=%d (%s): not bitwise AddScaledTo per lane", nw, n, path)
				}
				if !untouched(slab, n*nw, off) {
					t.Fatalf("w=%d n=%d (%s): wrote outside its destination", nw, n, path)
				}
			})
		}
	}
}
