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
// bit, on each kernel path, and the paths to each other — with the
// right-hand sides packed (row stride w) and as a column stripe of a
// wider block (row stride w+3, the entries between the stripes poisoned
// and required to keep their poison). The solution sits in a poisoned
// slab that must keep its poison outside the window, and the factors must
// come back unchanged. It reports false, having checked nothing, when a
// matrix is singular.
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
	for _, ldx := range []int{w, w + 3} {
		var first []float64
		off := 0 // the paths see the slab at different alignments
		eachKernelPath(t, func(path string) {
			off++
			x, slab := poisoned((n-1)*ldx+w, off)
			for i := 0; i < n; i++ {
				copy(x[i*ldx:i*ldx+w], x0[i*w:i*w+w])
			}
			TriSolveLanes(lu, x, n, w, ldx)
			for i := range x {
				if l := i % ldx; l >= w && math.Float64bits(x[i]) != math.Float64bits(poison) {
					t.Fatalf("n=%d w=%d ldx=%d (%s): wrote entry %d between the rows", n, w, ldx, path, i)
				}
			}
			for l := range mats {
				for i := 0; i < n; i++ {
					if math.Float64bits(x[i*ldx+l]) != math.Float64bits(want[l][i]) {
						t.Fatalf("n=%d w=%d ldx=%d lane %d row %d (%s): %v, SolveFactored %v", n, w, ldx, l, i, path, x[i*ldx+l], want[l][i])
					}
				}
			}
			if !untouched(slab, len(x), off) {
				t.Fatalf("n=%d w=%d ldx=%d (%s): wrote outside the right-hand sides", n, w, ldx, path)
			}
			if !sameBits(lu, keep) {
				t.Fatalf("n=%d w=%d ldx=%d (%s): factors modified", n, w, ldx, path)
			}
			if first == nil {
				first = append([]float64(nil), x...)
			} else if !sameBits(x, first) {
				t.Fatalf("n=%d w=%d ldx=%d: %s path differs from the generic path", n, w, ldx, path)
			}
		})
	}
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
		"block-zeros": func(n, l int) *Matrix {
			// Odd lanes only: row i's first max(0, i-1-i%4) entries are
			// zero below a dominant diagonal, so its multipliers are
			// exactly zero up to a step that sits at every position of a
			// four-column block as i runs, and non-zero after it.
			m := elim(n, elimCases(n, 0, int64(5*n+l))["dominant"])
			if l%2 == 1 {
				for i := 1; i < n; i++ {
					clear(m.Data[i*n : i*n+max(0, i-1-i%4)])
				}
			}
			return m
		},
	}
	// Every residue of n mod 4, block boundaries (4, 8, 12) and sizes
	// one past them.
	for _, w := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 27, 64, 125} {
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
// AddScaledTo with that lane's base and weight, bit for bit, on both
// kernel paths, for every width and lengths around the vector width, with
// a base per lane and with lanes sharing one (an angle set's groups),
// writing nothing outside the destination.
func TestAddScaledToLanesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	lengths := []int{4096}
	for n := 0; n <= 20; n++ {
		lengths = append(lengths, n)
	}
	for _, nw := range []int{1, 2, 4} {
		for _, shared := range []bool{false, true} {
			for _, n := range lengths {
				x := make([]float64, n)
				for i := range x {
					x[i] = elementValue(rng)
				}
				base := make([][]float64, nw)
				for l := range base {
					if shared && l%2 == 1 {
						base[l] = base[l-1]
						continue
					}
					base[l] = make([]float64, n)
					for i := range base[l] {
						base[l][i] = elementValue(rng)
					}
				}
				w := make([]float64, nw)
				for l := range w {
					w[l] = elementValue(rng)
				}
				want := make([]float64, n*nw)
				lane := make([]float64, n)
				for l, wl := range w {
					AddScaledTo(lane, base[l], x, wl)
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
						t.Fatalf("w=%d n=%d shared=%v (%s): not bitwise AddScaledTo per lane", nw, n, shared, path)
					}
					if !untouched(slab, n*nw, off) {
						t.Fatalf("w=%d n=%d shared=%v (%s): wrote outside its destination", nw, n, shared, path)
					}
				})
			}
		}
	}
}

// faceApplyRef is FaceApplyLanes' one-line definition, lane by lane: the
// scalar row sum each lane must reproduce bit for bit.
func faceApplyRef(b, fb, u []float64, rows []int, w int) {
	nf := len(rows)
	for l := 0; l < w; l++ {
		for r, gi := range rows {
			acc := 0.0
			for k := 0; k < nf; k++ {
				acc += fb[r*nf+k] * u[k*w+l]
			}
			b[gi*w+l] -= acc
		}
	}
}

// checkFaceApplyLanes applies one nf x nf block to w lanes on each kernel
// path and holds every lane to faceApplyRef, bit for bit, and the paths
// to each other. b has nb rows, rows picks nf distinct ones of them in
// the order given; every operand sits in a poisoned slab at an alignment
// of its own, the rows rows does not name and everything outside the
// windows must keep their poison, and fb and u must come back unchanged.
func checkFaceApplyLanes(t *testing.T, fb0, u0, b0 []float64, rows []int, w int) {
	t.Helper()
	want := append([]float64(nil), b0...)
	faceApplyRef(want, fb0, u0, rows, w)
	named := make(map[int]bool, len(rows))
	for _, r := range rows {
		named[r] = true
	}
	var first []float64
	off := 0
	eachKernelPath(t, func(path string) {
		off++
		fb, fbSlab := poisoned(len(fb0), off%4)
		u, uSlab := poisoned(len(u0), (off+1)%4)
		b, bSlab := poisoned(len(b0), (off+2)%4)
		copy(fb, fb0)
		copy(u, u0)
		copy(b, b0)
		FaceApplyLanes(b, fb, u, rows, w)
		for i := range b {
			if math.Float64bits(b[i]) != math.Float64bits(want[i]) {
				t.Fatalf("nf=%d w=%d row %d lane %d (%s, row named %v): %v, want %v", len(rows), w, i/w, i%w, path, named[i/w], b[i], want[i])
			}
		}
		if !untouched(bSlab, len(b), (off+2)%4) {
			t.Fatalf("nf=%d w=%d (%s): wrote outside the right-hand sides", len(rows), w, path)
		}
		if !untouched(fbSlab, len(fb), off%4) || !untouched(uSlab, len(u), (off+1)%4) || !sameBits(fb, fb0) || !sameBits(u, u0) {
			t.Fatalf("nf=%d w=%d (%s): an operand was modified", len(rows), w, path)
		}
		if first == nil {
			first = append([]float64(nil), b...)
		} else if !sameBits(b, first) {
			t.Fatalf("nf=%d w=%d: %s path differs from the generic path", len(rows), w, path)
		}
	})
}

// TestFaceApplyLanesBitwise: every lane width the engine's group counts
// produce and then some (1, 2, 3, 4, 5, 8, 16: each chunk width and its
// tails) at the face sizes of orders 0 to 3 (nf = 1, 4, 9, 16: each
// row-block count and its tails), with the face rows scattered through a
// taller right-hand side and operands drawn from the specials — both
// zeros, subnormals, the infinities, the hardware NaN — and ordinary
// sevenths and eighths.
func TestFaceApplyLanesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	draw := func() float64 {
		if rng.Intn(8) == 0 {
			return laneValue(byte(rng.Intn(8)))
		}
		return elementValue(rng)
	}
	for _, w := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, nf := range []int{1, 4, 9, 16} {
			for trial := 0; trial < 4; trial++ {
				nb := nf + 3
				rows := rng.Perm(nb)[:nf]
				fb := make([]float64, nf*nf)
				u := make([]float64, nf*w)
				b := make([]float64, nb*w)
				for _, v := range [][]float64{fb, u, b} {
					for i := range v {
						if trial == 0 {
							v[i] = rng.NormFloat64()
						} else {
							v[i] = draw()
						}
					}
				}
				checkFaceApplyLanes(t, fb, u, b, rows, w)
			}
		}
	}
}

// FuzzFaceApplyLanesBitwise draws the width, the face size, the row map
// and every operand (laneValue's specials among them) and holds each
// lane to faceApplyRef.
func FuzzFaceApplyLanesBitwise(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		for _, data := range elimCases(4, 4, seed) {
			f.Add(uint8(4), uint8(4), int64(seed), data)
		}
	}
	f.Fuzz(func(t *testing.T, w, nf uint8, perm int64, data []byte) {
		ww, nn := 1+int(w%17), 1+int(nf%16)
		at := func(i int) float64 {
			if len(data) == 0 {
				return 0
			}
			return laneValue(data[i%len(data)])
		}
		nb := nn + int(perm&3)
		rows := rand.New(rand.NewSource(perm)).Perm(nb)[:nn]
		fb := make([]float64, nn*nn)
		u := make([]float64, nn*ww)
		b := make([]float64, nb*ww)
		i := 0
		for _, v := range [][]float64{fb, u, b} {
			for j := range v {
				v[j] = at(i)
				i++
			}
		}
		checkFaceApplyLanes(t, fb, u, b, rows, ww)
	})
}

// checkFaceApplyLanesPerLane applies w lane-interleaved nf x nf blocks to
// w lanes on each kernel path and holds every lane to faceApplyRef on
// that lane alone — its own block, its own column of u and b — bit for
// bit, and the paths to each other; operands sit in poisoned slabs as in
// checkFaceApplyLanes, and everything the call may not write keeps its
// bits.
func checkFaceApplyLanesPerLane(t *testing.T, fb0, u0, b0 []float64, rows []int, w int) {
	t.Helper()
	nf, nb := len(rows), len(b0)/w
	want := append([]float64(nil), b0...)
	blk := make([]float64, nf*nf)
	ul := make([]float64, nf)
	bl := make([]float64, nb)
	for l := 0; l < w; l++ {
		for i := range blk {
			blk[i] = fb0[i*w+l]
		}
		for k := range ul {
			ul[k] = u0[k*w+l]
		}
		for i := range bl {
			bl[i] = want[i*w+l]
		}
		faceApplyRef(bl, blk, ul, rows, 1)
		for i, v := range bl {
			want[i*w+l] = v
		}
	}
	var first []float64
	off := 0
	eachKernelPath(t, func(path string) {
		off++
		fb, fbSlab := poisoned(len(fb0), off%4)
		u, uSlab := poisoned(len(u0), (off+1)%4)
		b, bSlab := poisoned(len(b0), (off+2)%4)
		copy(fb, fb0)
		copy(u, u0)
		copy(b, b0)
		FaceApplyLanesPerLane(b, fb, u, rows, w)
		for i := range b {
			if math.Float64bits(b[i]) != math.Float64bits(want[i]) {
				t.Fatalf("nf=%d w=%d row %d lane %d (%s): %v, want %v", nf, w, i/w, i%w, path, b[i], want[i])
			}
		}
		if !untouched(bSlab, len(b), (off+2)%4) {
			t.Fatalf("nf=%d w=%d (%s): wrote outside the right-hand sides", nf, w, path)
		}
		if !untouched(fbSlab, len(fb), off%4) || !untouched(uSlab, len(u), (off+1)%4) || !sameBits(fb, fb0) || !sameBits(u, u0) {
			t.Fatalf("nf=%d w=%d (%s): an operand was modified", nf, w, path)
		}
		if first == nil {
			first = append([]float64(nil), b...)
		} else if !sameBits(b, first) {
			t.Fatalf("nf=%d w=%d: %s path differs from the generic path", nf, w, path)
		}
	})
}

// TestFaceApplyLanesPerLaneBitwise: every width an angle set produces
// (1, 2, 4) at the face sizes of orders 1 to 3 (nf = 4, 9, 16: each
// row-block count and its tail), the face rows scattered through a
// taller right-hand side, operands drawn from the specials (both zeros,
// subnormals, the infinities, the hardware NaN) and ordinary sevenths
// and eighths, and lanes whose blocks differ.
func TestFaceApplyLanesPerLaneBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	draw := func() float64 {
		if rng.Intn(8) == 0 {
			return laneValue(byte(rng.Intn(8)))
		}
		return elementValue(rng)
	}
	for _, w := range []int{1, 2, 4} {
		for _, nf := range []int{4, 9, 16} {
			for trial := 0; trial < 4; trial++ {
				nb := nf + 3
				rows := rng.Perm(nb)[:nf]
				fb := make([]float64, nf*nf*w)
				u := make([]float64, nf*w)
				b := make([]float64, nb*w)
				for _, v := range [][]float64{fb, u, b} {
					for i := range v {
						if trial == 0 {
							v[i] = rng.NormFloat64()
						} else {
							v[i] = draw()
						}
					}
				}
				checkFaceApplyLanesPerLane(t, fb, u, b, rows, w)
			}
		}
	}
}

// FuzzFaceApplyLanesPerLaneBitwise draws the width, the face size, the
// row map and every operand (laneValue's specials among them) and holds
// each lane to the scalar row sum of its own block.
func FuzzFaceApplyLanesPerLaneBitwise(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		for _, data := range elimCases(4, 4, seed) {
			f.Add(uint8(2), uint8(8), int64(seed), data)
		}
	}
	f.Fuzz(func(t *testing.T, w, nf uint8, perm int64, data []byte) {
		ww, nn := []int{1, 2, 4}[w%3], 1+int(nf%16)
		at := func(i int) float64 {
			if len(data) == 0 {
				return 0
			}
			return laneValue(data[i%len(data)])
		}
		nb := nn + int(perm&3)
		rows := rand.New(rand.NewSource(perm)).Perm(nb)[:nn]
		fb := make([]float64, nn*nn*ww)
		u := make([]float64, nn*ww)
		b := make([]float64, nb*ww)
		i := 0
		for _, v := range [][]float64{fb, u, b} {
			for j := range v {
				v[j] = at(i)
				i++
			}
		}
		checkFaceApplyLanesPerLane(t, fb, u, b, rows, ww)
	})
}
