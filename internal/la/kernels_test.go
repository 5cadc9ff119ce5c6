package la

import (
	"math"
	"math/rand"
	"testing"
)

// poison fills the entries a kernel must not touch. It is an ordinary
// number, not a NaN: a NaN would pass through a stray y + w*x unchanged
// and hide the store.
const poison = 12345.678

// guard is the number of poisoned entries on each side of a window.
const guard = 8

// poisoned returns a window of n entries at offset off (so windows start
// at every alignment modulo a vector) inside a poisoned slab with guard
// entries on both sides, and the slab.
func poisoned(n, off int) (window, slab []float64) {
	slab = make([]float64, guard+off+n+guard)
	for i := range slab {
		slab[i] = poison
	}
	return slab[guard+off : guard+off+n : guard+off+n], slab
}

// untouched reports whether every slab entry outside the n-entry window
// at offset off still holds the poison.
func untouched(slab []float64, n, off int) bool {
	for i, v := range slab {
		if (i < guard+off || i >= guard+off+n) && math.Float64bits(v) != math.Float64bits(poison) {
			return false
		}
	}
	return true
}

// elementValue draws an operand of the element-wise tests: elimValue's
// specials (both zeros, subnormals, 4099), the infinities, and ordinary
// sevenths and eighths.
func elementValue(rng *rand.Rand) float64 {
	switch b := rng.Intn(64); b {
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	default:
		if b < 5 {
			return elimValue(byte(b))
		}
		return elimValue(byte(rng.Intn(256)))
	}
}

// TestElementwiseBitwise holds AddScaled, AddScaledTo and Fuse3 to their
// one-line definitions bit for bit on both kernel paths — every length
// around the vector width and the minimum length, windows at every
// alignment — and requires every entry outside the destination window,
// and every operand, to come back unchanged.
func TestElementwiseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lengths := []int{4096}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 4; off++ {
			// Operands sit in poisoned slabs of their own, at an offset
			// other than the destination's.
			var in [3][]float64
			var inSlab [3][]float64
			for j := range in {
				in[j], inSlab[j] = poisoned(n, (off+j+1)%4)
				for i := range in[j] {
					in[j][i] = elementValue(rng)
				}
			}
			y0 := make([]float64, n)
			for i := range y0 {
				y0[i] = elementValue(rng)
			}
			w := [3]float64{elementValue(rng), elementValue(rng), elementValue(rng)}
			a, b, c := in[0], in[1], in[2]
			kept := [3][]float64{}
			for j := range in {
				kept[j] = append([]float64(nil), inSlab[j]...)
			}
			want := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
			for i := 0; i < n; i++ {
				want[0][i] = y0[i] + w[0]*a[i]
				want[1][i] = a[i] + w[0]*b[i]
				want[2][i] = w[0]*a[i] + w[1]*b[i] + w[2]*c[i]
			}
			eachKernelPath(t, func(path string) {
				for op, run := range []func(dst []float64){
					func(dst []float64) { copy(dst, y0); AddScaled(dst, a, w[0]) },
					func(dst []float64) { AddScaledTo(dst, a, b, w[0]) },
					func(dst []float64) { Fuse3(dst, a, b, c, w[0], w[1], w[2]) },
				} {
					name := []string{"AddScaled", "AddScaledTo", "Fuse3"}[op]
					dst, slab := poisoned(n, off)
					run(dst)
					if !sameBits(dst, want[op]) {
						t.Fatalf("%s n=%d off=%d (%s): not bitwise the scalar definition", name, n, off, path)
					}
					if !untouched(slab, n, off) {
						t.Fatalf("%s n=%d off=%d (%s): wrote outside its destination", name, n, off, path)
					}
				}
				for j := range in {
					if !sameBits(inSlab[j], kept[j]) {
						t.Fatalf("n=%d off=%d (%s): operand %d modified", n, off, path, j)
					}
				}
			})
		}
	}
}

// TestUpdate2AVX2Window calls the update kernel directly on a matrix
// packed between poisoned neighbours (the factor store packs matrices
// back to back) and holds the whole slab to the Go loops' result: the
// window's bits, nothing outside columns c..k1-1 of the target rows
// changed, for every column-tail length and the panel (k1 < n) and
// blocked (c > k+1) shapes.
func TestUpdate2AVX2Window(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU lacks AVX2")
	}
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{6, 9, 16, 27} {
		for k := 1; k < n-4; k += 3 {
			for c := k + 1; c <= n && c <= k+3; c++ {
				for k1 := c; k1 <= n; k1++ {
					for i0 := k + 1; i0+4 <= n; i0 += 3 {
						rows := (n - i0) &^ 3
						off := rng.Intn(4)
						got, slab := poisoned(n*n, off)
						for i := range got {
							// Non-zero everywhere: the kernel's caller
							// guarantees it of the multipliers.
							got[i] = float64(1+rng.Intn(255)) / 7
						}
						wantSlab := append([]float64(nil), slab...)
						want := wantSlab[guard+off : guard+off+n*n]
						for i := i0; i < i0+rows; i++ {
							rowSub2(want, n, nil, i, k, c, k1)
						}
						update2AVX2(got, n, k, c, k1, i0, rows)
						if !sameBits(slab, wantSlab) {
							t.Fatalf("n=%d k=%d c=%d k1=%d i0=%d rows=%d: slab not bitwise the Go loops' result", n, k, c, k1, i0, rows)
						}
					}
				}
			}
		}
	}
}
