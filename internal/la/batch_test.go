package la

import (
	"math/rand"
	"testing"
)

// randomSystem builds a well-conditioned (diagonally dominated) n x n
// matrix and k right-hand sides from a fixed seed.
func randomSystem(t *testing.T, rng *rand.Rand, n, k int) (*Matrix, []float64) {
	t.Helper()
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, float64(n)) // dominate the diagonal
	}
	bs := make([]float64, k*n)
	for i := range bs {
		bs[i] = rng.NormFloat64()
	}
	return a, bs
}

// TestSolveFactoredMultiBitwise: every column of a batched factored solve
// must match a scalar SolveFactored of that column exactly — the sweep
// engine's bitwise-reproducibility pins rest on this.
func TestSolveFactoredMultiBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 27, 64} {
		for _, k := range []int{1, 2, 3, 8} {
			a, bs := randomSystem(t, rng, n, k)
			piv := make([]int, n)
			if err := FactorBlocked(a, piv, DefaultBlockSize); err != nil {
				t.Fatalf("n=%d: factor: %v", n, err)
			}
			want := append([]float64(nil), bs...)
			for r := 0; r < k; r++ {
				SolveFactored(a, piv, want[r*n:(r+1)*n])
			}
			SolveFactoredMulti(a, piv, bs, k)
			for i := range bs {
				if bs[i] != want[i] {
					t.Fatalf("n=%d k=%d: batched[%d]=%v, scalar=%v (not bitwise)", n, k, i, bs[i], want[i])
				}
			}
		}
	}
}

// TestSolveGEMultiBitwise: every column of a batched GE solve must match
// a scalar SolveGE on a fresh copy of the matrix exactly.
func TestSolveGEMultiBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 8, 27, 64} {
		for _, k := range []int{1, 2, 3, 8} {
			a, bs := randomSystem(t, rng, n, k)
			want := make([]float64, k*n)
			for r := 0; r < k; r++ {
				ac := NewMatrix(n)
				ac.CopyFrom(a)
				b := append([]float64(nil), bs[r*n:(r+1)*n]...)
				if err := SolveGE(ac, b, want[r*n:(r+1)*n]); err != nil {
					t.Fatalf("n=%d: scalar GE: %v", n, err)
				}
			}
			if err := SolveGEMulti(a, bs, k); err != nil {
				t.Fatalf("n=%d k=%d: batched GE: %v", n, k, err)
			}
			for i := range bs {
				if bs[i] != want[i] {
					t.Fatalf("n=%d k=%d: batched[%d]=%v, scalar=%v (not bitwise)", n, k, i, bs[i], want[i])
				}
			}
		}
	}
}

// TestSolveMultiResidual: batched solutions actually solve the systems.
func TestSolveMultiResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, k := 27, 5
	a, bs := randomSystem(t, rng, n, k)
	orig := NewMatrix(n)
	orig.CopyFrom(a)
	want := append([]float64(nil), bs...)
	if err := SolveGEMulti(a, bs, k); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		if res := Residual(orig, bs[r*n:(r+1)*n], want[r*n:(r+1)*n]); res > 1e-10 {
			t.Fatalf("column %d residual %g", r, res)
		}
	}
}

// TestSolveGEMultiSingular: a singular matrix reports ErrSingular, like
// the scalar path.
func TestSolveGEMultiSingular(t *testing.T) {
	a := NewMatrix(3) // all zeros
	bs := make([]float64, 6)
	if err := SolveGEMulti(a, bs, 2); err != ErrSingular {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}
