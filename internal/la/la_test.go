package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSystem builds a well-conditioned random system by making A strictly
// diagonally dominant, along with a known solution x and RHS b = A x.
func randSystem(rng *rand.Rand, n int) (*Matrix, []float64, []float64) {
	a := NewMatrix(n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		a.Add(i, i, rowSum+1)
		x[i] = rng.Float64()*10 - 5
	}
	b := make([]float64, n)
	MatVec(a, x, b)
	return a, x, b
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewMatrix(2).CopyFrom(NewMatrix(3))
}

func TestSolveGEIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, 2, 3, 4, 5}
	x := make([]float64, n)
	if err := SolveGE(a, b, x); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(x, []float64{1, 2, 3, 4, 5}) > 1e-14 {
		t.Fatalf("identity solve wrong: %v", x)
	}
}

func TestSolveGEKnown2x2(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	b := []float64{5, 10}
	x := make([]float64, 2)
	if err := SolveGE(a, b, x); err != nil {
		t.Fatal(err)
	}
	// Solution of [[2,1],[1,3]] x = [5,10] is x = [1, 3].
	if maxAbsDiff(x, []float64{1, 3}) > 1e-13 {
		t.Fatalf("got %v, want [1 3]", x)
	}
}

func TestSolveGERequiresPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	a := NewMatrix(2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	b := []float64{2, 3}
	x := make([]float64, 2)
	if err := SolveGE(a, b, x); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(x, []float64{3, 2}) > 1e-14 {
		t.Fatalf("got %v, want [3 2]", x)
	}
}

func TestSolveGESingular(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	b := []float64{1, 2}
	x := make([]float64, 2)
	if err := SolveGE(a, b, x); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestSolveGESizeMismatch(t *testing.T) {
	a := NewMatrix(3)
	if err := SolveGE(a, make([]float64, 2), make([]float64, 3)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestSolveGERandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 27, 64} {
		a, want, b := randSystem(rng, n)
		x := make([]float64, n)
		if err := SolveGE(a, b, x); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(x, want); d > 1e-9 {
			t.Fatalf("n=%d: max error %v", n, d)
		}
	}
}

func TestFactorSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 8, 27} {
		a, want, b := randSystem(rng, n)
		piv := make([]int, n)
		if err := Factor(a, piv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		SolveFactored(a, piv, b)
		if d := maxAbsDiff(b, want); d > 1e-9 {
			t.Fatalf("n=%d: max error %v", n, d)
		}
	}
}

// TestFactorBlockedMatchesUnblocked: the blocked factorisation reaches its
// trailing block through the row operations of the elimination core, so
// factors, pivot record and error are bit for bit Factor's — on both
// kernel paths, with panels wider and narrower than a vector pass, odd
// panel widths, swaps and exact-zero multipliers.
func TestFactorBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{4, 8, 33, 64, 65, 125, 216} {
		for _, nb := range []int{5, 32} {
			for name, data := range elimCases(n, 0, int64(n+nb)) {
				eachKernelPath(t, func(path string) {
					a0, _ := elimSystem(n, 0, data)
					a1 := NewMatrix(n)
					a1.CopyFrom(a0)
					p0, p1 := make([]int, n), make([]int, n)
					err0, err1 := Factor(a0, p0), FactorBlocked(a1, p1, nb)
					if err0 != err1 {
						t.Fatalf("n=%d nb=%d %s (%s): FactorBlocked err %v, Factor %v", n, nb, name, path, err1, err0)
					}
					if err0 != nil {
						return
					}
					for i := range p0 {
						if p0[i] != p1[i] {
							t.Fatalf("n=%d nb=%d %s (%s): pivot %d differs: %d vs %d", n, nb, name, path, i, p0[i], p1[i])
						}
					}
					if !sameBits(a0.Data, a1.Data) {
						t.Fatalf("n=%d nb=%d %s (%s): FactorBlocked not bitwise Factor", n, nb, name, path)
					}
				})
			}
		}
	}
}

func TestSolveDGESVRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 8, 27, 64, 125, 216} {
		a, want, b := randSystem(rng, n)
		piv := make([]int, n)
		if err := SolveDGESV(a, b, piv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(b, want); d > 1e-8 {
			t.Fatalf("n=%d: max error %v", n, d)
		}
	}
}

func TestSolveDGESVSingular(t *testing.T) {
	a := NewMatrix(3) // all zeros
	b := make([]float64, 3)
	if err := SolveDGESV(a, b, make([]int, 3)); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestFactorBlockedPivLengthMismatch(t *testing.T) {
	a := NewMatrix(4)
	if err := FactorBlocked(a, make([]int, 2), 2); err == nil {
		t.Fatal("expected pivot length error")
	}
}

// TestGEAndDGESVAgree: the two Table II solvers return the same bits (the
// random right-hand sides hold no -0.0, doc.go's one corner).
func TestGEAndDGESVAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(100) // on both sides of DefaultBlockSize
		a, _, b := randSystem(rng, n)
		a2 := NewMatrix(n)
		a2.CopyFrom(a)
		b2 := append([]float64(nil), b...)
		x1 := make([]float64, n)
		if err := SolveGE(a, b, x1); err != nil {
			t.Fatal(err)
		}
		piv := make([]int, n)
		if err := SolveDGESV(a2, b2, piv); err != nil {
			t.Fatal(err)
		}
		if !sameBits(x1, b2) {
			t.Fatalf("n=%d: DGESV not bitwise GE, max difference %v", n, maxAbsDiff(x1, b2))
		}
	}
}

func TestResidual(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	if r := Residual(a, []float64{1, 2}, []float64{1, 2}); r != 0 {
		t.Fatalf("residual of exact solution = %v", r)
	}
	if r := Residual(a, []float64{1, 2}, []float64{1, 5}); math.Abs(r-3) > 1e-15 {
		t.Fatalf("residual = %v, want 3", r)
	}
}

func TestWorkspace(t *testing.T) {
	w := NewWorkspace(8)
	if w.A.N != 8 || len(w.B) != 8 || len(w.X) != 8 || len(w.Piv) != 8 {
		t.Fatal("workspace sized incorrectly")
	}
}

// Property: GE residual stays tiny for random diagonally dominant systems.
func TestSolveGEQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(raw uint8) bool {
		n := int(raw%30) + 1
		a, _, b := randSystem(rng, n)
		aCopy := NewMatrix(n)
		aCopy.CopyFrom(a)
		bCopy := append([]float64(nil), b...)
		x := make([]float64, n)
		if err := SolveGE(a, b, x); err != nil {
			return false
		}
		return Residual(aCopy, x, bCopy) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: blocked LU solves match the direct GE result.
func TestBlockedLUQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(raw uint8, rawNB uint8) bool {
		n := int(raw%50) + 1
		nb := int(rawNB%16) + 1
		a, want, b := randSystem(rng, n)
		piv := make([]int, n)
		if err := FactorBlocked(a, piv, nb); err != nil {
			return false
		}
		SolveFactored(a, piv, b)
		return maxAbsDiff(b, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The three elimination loops the package carried before they became one
// (eliminate): kept verbatim as the bitwise oracle. geReference is the
// multi-RHS Gaussian elimination (for k = 1 it is, operation for
// operation, the old scalar SolveGE), factorReference the unblocked
// right-looking LU over pivot steps k0..k1-1.

func geReference(a *Matrix, bs []float64, k int) error {
	n := a.N
	ad := a.Data
	for kk := 0; kk < n; kk++ {
		p := kk
		pv := math.Abs(ad[kk*n+kk])
		for i := kk + 1; i < n; i++ {
			if v := math.Abs(ad[i*n+kk]); v > pv {
				pv = v
				p = i
			}
		}
		if pv == 0 {
			return ErrSingular
		}
		if p != kk {
			for j := kk; j < n; j++ {
				ad[kk*n+j], ad[p*n+j] = ad[p*n+j], ad[kk*n+j]
			}
			for r := 0; r < k; r++ {
				bs[r*n+kk], bs[r*n+p] = bs[r*n+p], bs[r*n+kk]
			}
		}
		inv := 1 / ad[kk*n+kk]
		for i := kk + 1; i < n; i++ {
			f := ad[i*n+kk] * inv
			if f == 0 {
				continue
			}
			ad[i*n+kk] = 0
			for j := kk + 1; j < n; j++ {
				ad[i*n+j] -= f * ad[kk*n+j]
			}
			for r := 0; r < k; r++ {
				bs[r*n+i] -= f * bs[r*n+kk]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		for r := 0; r < k; r++ {
			s := bs[r*n+i]
			for j := i + 1; j < n; j++ {
				s -= ad[i*n+j] * bs[r*n+j]
			}
			bs[r*n+i] = s / ad[i*n+i]
		}
	}
	return nil
}

func factorReference(a *Matrix, piv []int, k0, k1 int) error {
	n := a.N
	ad := a.Data
	for k := k0; k < k1; k++ {
		p := k
		pv := math.Abs(ad[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(ad[i*n+k]); v > pv {
				pv = v
				p = i
			}
		}
		if pv == 0 {
			return ErrSingular
		}
		piv[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				ad[k*n+j], ad[p*n+j] = ad[p*n+j], ad[k*n+j]
			}
		}
		inv := 1 / ad[k*n+k]
		for i := k + 1; i < n; i++ {
			l := ad[i*n+k] * inv
			ad[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < k1; j++ {
				ad[i*n+j] -= l * ad[k*n+j]
			}
		}
	}
	return nil
}

// mulTNReference is the textbook triple loop MulTN is held to: C zeroed,
// then one rank-1 update per q.
func mulTNReference(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m, n, k int) {
	for t := 0; t < m; t++ {
		for j := 0; j < n; j++ {
			c[t*ldc+j] = 0
		}
	}
	for q := 0; q < k; q++ {
		for t := 0; t < m; t++ {
			for j := 0; j < n; j++ {
				c[t*ldc+j] += a[q*lda+t] * b[q*ldb+j]
			}
		}
	}
}

// elimValue decodes one byte of a test case into a matrix or RHS entry:
// a few specials (both zeros, subnormals whose multipliers underflow to
// zero, a diagonal-dominating 4099) and otherwise a small signed number
// over 7 or 8, so products round (sevenths) and cancel exactly (eighths)
// in the same matrix.
func elimValue(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324
	case 3:
		return -5e-324
	case 4:
		return 4099
	}
	d := 8.0
	if b&1 == 1 {
		d = 7
	}
	return float64(int(b)-128) / d
}

// elimSystem builds the n x n matrix and k right-hand sides of a test
// case from its bytes (cycled when short; no bytes is the zero matrix).
func elimSystem(n, k int, data []byte) (*Matrix, []float64) {
	at := func(i int) float64 {
		if len(data) == 0 {
			return 0
		}
		return elimValue(data[i%len(data)])
	}
	a := NewMatrix(n)
	for i := range a.Data {
		a.Data[i] = at(i)
	}
	bs := make([]float64, k*n)
	for i := range bs {
		bs[i] = at(n*n + i)
	}
	return a, bs
}

func sameBits(x, y []float64) bool {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return len(x) == len(y)
}

// checkEliminate runs one case on every kernel path of this machine and
// holds each to the reference loops, and the paths to each other, bit for
// bit.
func checkEliminate(t *testing.T, n, k int, data []byte) {
	t.Helper()
	var generic []float64
	eachKernelPath(t, func(path string) {
		got := checkEliminatePath(t, n, k, data)
		if path == "generic" {
			generic = got
		} else if !sameBits(got, generic) {
			t.Fatalf("%s path not bitwise the generic path", path)
		}
	})
}

// checkEliminatePath runs every wrapper over eliminate on one case and
// holds each to the reference loops bit for bit: solutions, LU factors,
// pivot records, the error and the step it was raised at. It returns
// everything the wrappers wrote — after an error too — for the caller to
// compare across kernel paths.
func checkEliminatePath(t *testing.T, n, k int, data []byte) (out []float64) {
	t.Helper()
	a0, bs0 := elimSystem(n, k, data)
	fresh := func() (*Matrix, []float64) {
		a := NewMatrix(n)
		a.CopyFrom(a0)
		return a, append([]float64(nil), bs0...)
	}
	unset := func() []int {
		piv := make([]int, n)
		for i := range piv {
			piv[i] = -1
		}
		return piv
	}
	samePiv := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}

	// Gaussian elimination: the core carrying all k right-hand sides,
	// then SolveGE column by column with x aliasing b and apart from it.
	aRef, want := fresh()
	errRef := geReference(aRef, want, k)
	a, bs := fresh()
	err := eliminate(a, nil, bs, 0, n)
	if err == nil {
		backSolve(a, bs)
	}
	if err != errRef {
		t.Fatalf("eliminate err %v, reference %v", err, errRef)
	}
	if errRef == nil && !sameBits(bs, want) {
		t.Fatalf("eliminate + backSolve not bitwise the reference")
	}
	out = append(append(out, a.Data...), bs...)
	for r := 0; r < k; r++ {
		for _, alias := range []bool{true, false} {
			a, bs := fresh()
			b := bs[r*n : (r+1)*n]
			x := b
			if !alias {
				x = make([]float64, n)
			}
			if err := SolveGE(a, b, x); err != errRef {
				t.Fatalf("SolveGE err %v, reference %v", err, errRef)
			}
			if errRef == nil && !sameBits(x, want[r*n:(r+1)*n]) {
				t.Fatalf("SolveGE column %d (alias %v) not bitwise the reference", r, alias)
			}
		}
	}

	// LU: factors and pivot record; on a singular input the steps
	// recorded before the error say where it was raised.
	luRef, _ := fresh()
	pivRef := unset()
	errRef = factorReference(luRef, pivRef, 0, n)
	lu, _ := fresh()
	piv := unset()
	if err := Factor(lu, piv); err != errRef {
		t.Fatalf("Factor err %v, reference %v", err, errRef)
	}
	if !samePiv(piv, pivRef) {
		t.Fatalf("Factor pivots %v, reference %v", piv, pivRef)
	}
	out = append(out, lu.Data...)
	if errRef == nil {
		if !sameBits(lu.Data, luRef.Data) {
			t.Fatalf("Factor not bitwise the reference")
		}
		// GE == Factor + SolveFactored: bitwise unless the right-hand
		// side holds a -0.0, which the triangular solve (it subtracts
		// 0*b where elimination skips) may return as +0.0. Overflowed
		// systems are exempt: there 0*Inf separates the two.
		negZero, finite := false, true
		for _, v := range bs0 {
			negZero = negZero || (v == 0 && math.Signbit(v))
		}
		for _, v := range want {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		_, got := fresh()
		for r := 0; r < k; r++ {
			SolveFactored(lu, piv, got[r*n:(r+1)*n])
		}
		for i := range got {
			if !finite {
				break
			}
			if got[i] != want[i] || (!negZero && math.Float64bits(got[i]) != math.Float64bits(want[i])) {
				t.Fatalf("Factor+SolveFactored[%d] = %v, GE %v", i, got[i], want[i])
			}
		}
	}

	// Panels (FactorBlocked's use of the core): the same column ranges
	// through both, without the trailing update in between — the later
	// panels then factor stale columns, which is as good a test matrix.
	for _, nb := range []int{1, 3, 8} {
		luRef, _ := fresh()
		lu, _ := fresh()
		pivRef, piv := unset(), unset()
		for k0 := 0; k0 < n; k0 += nb {
			k1 := min(k0+nb, n)
			errRef := factorReference(luRef, pivRef, k0, k1)
			if err := eliminate(lu, piv, nil, k0, k1); err != errRef {
				t.Fatalf("panel [%d,%d) err %v, reference %v", k0, k1, err, errRef)
			}
			if !samePiv(piv, pivRef) {
				t.Fatalf("panel [%d,%d) pivots %v, reference %v", k0, k1, piv, pivRef)
			}
			if errRef != nil {
				break
			}
			if !sameBits(lu.Data, luRef.Data) {
				t.Fatalf("panel [%d,%d) not bitwise the reference", k0, k1)
			}
		}
		out = append(out, lu.Data...)
	}
	return out
}

// elimCases are the hand-built shapes of the bitwise suite, as bytes for
// elimSystem: the table test runs them at every size, the fuzz target
// starts from them.
func elimCases(n, k int, seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	size := n*n + k*n
	random := func() []byte {
		d := make([]byte, size)
		for i := range d {
			d[i] = byte(5 + rng.Intn(251))
		}
		return d
	}
	cases := map[string][]byte{"zero": nil}
	// Dense, no dominant entry: a row swap at nearly every step, so at
	// both steps of most pairs.
	cases["swaps"] = random()
	// Dominant diagonal: no swaps at all.
	d := random()
	for i := 0; i < n; i++ {
		d[i*n+i] = 4
	}
	cases["dominant"] = d
	// Dominant entries on a permutation: a forced swap wherever the
	// permutation moves a row.
	d = random()
	for i, j := range rng.Perm(n) {
		d[i*n+j] = 4
	}
	cases["permuted"] = d
	// Exact-zero multipliers. Below a dominant diagonal: column k zero
	// for the first step of each pair, for the second (which also needs
	// a[k-1][k] = 0, or step k-1 fills it in), for both, and scattered
	// +0/-0/subnormal entries so blocks of four rows mix zero and
	// non-zero multipliers.
	for name, zero := range map[string]func(i, j int) bool{
		"zero-first":  func(i, j int) bool { return j%2 == 0 && i > j },
		"zero-second": func(i, j int) bool { return j%2 == 1 && i >= j-1 && i != j },
		"zero-both":   func(i, j int) bool { return i > j },
		"zero-mixed":  func(i, j int) bool { return i != j && rng.Intn(2) == 0 },
	} {
		d = random()
		for i := 0; i < n; i++ {
			d[i*n+i] = 4
			for j := 0; j < n; j++ {
				if zero(i, j) {
					d[i*n+j] = byte(rng.Intn(4))
				}
			}
		}
		cases[name] = d
	}
	// -0.0 through matrix and right-hand sides, swaps included.
	d = random()
	for i := range d {
		if rng.Intn(3) == 0 {
			d[i] = 1
		}
	}
	cases["negzero"] = d
	// Singular at a late step (two equal rows cancel exactly) and at an
	// early one (a zero column).
	if n > 1 {
		d = random()
		copy(d[(n-1)*n:n*n], d[(n/2)*n:(n/2+1)*n])
		cases["singular-rows"] = d
		d = random()
		for i := 0; i < n; i++ {
			d[i*n+n/3] = 0
		}
		cases["singular-column"] = d
	}
	return cases
}

// TestEliminateBitwise: every wrapper, every shape, sizes on both sides
// of the pair and four-row block boundaries (odd n leaves an unpaired
// last step).
func TestEliminateBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 27, 64, 65, 125} {
		for _, k := range []int{1, 2, 5} {
			for name, data := range elimCases(n, k, int64(1000*n+k)) {
				t.Run(fmt.Sprintf("n%d/k%d/%s", n, k, name), func(t *testing.T) {
					checkEliminate(t, n, k, data)
				})
			}
		}
	}
}

func FuzzEliminateBitwise(f *testing.F) {
	for _, n := range []int{3, 8, 13} {
		for _, data := range elimCases(n, 2, int64(n)) {
			f.Add(uint8(n), uint8(2), data)
		}
	}
	f.Fuzz(func(t *testing.T, n, k uint8, data []byte) {
		checkEliminate(t, int(n%34), 1+int(k%3), data)
	})
}

// TestMulTNBitwise holds MulTN to mulTNReference bit for bit on both
// kernel paths, the paths to each other, over shapes ragged against the
// vector kernel's four-row, eight- and four-column blocks (fem's widths
// 27 and 9 among them) and k = 0 and 1, with padded leading dimensions
// and operands from the elimination suite's specials and infinities. C
// sits in a poisoned slab with gaps between its rows: nothing outside
// the m x n window may change, nor any operand.
func TestMulTNBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 27, 48} {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 27, 64} {
			for _, k := range []int{0, 1, 2, 5, 13} {
				lda, ldb, ldc := m+rng.Intn(3), n+rng.Intn(3), n+rng.Intn(3)
				a := make([]float64, max(k*lda, 1))
				b := make([]float64, max(k*ldb, 1))
				for i := range a {
					a[i] = elementValue(rng)
				}
				for i := range b {
					b[i] = elementValue(rng)
				}
				a0 := append([]float64(nil), a...)
				b0 := append([]float64(nil), b...)
				size := (m-1)*ldc + n
				off := rng.Intn(4)
				_, wantSlab := poisoned(size, off)
				mulTNReference(wantSlab[guard+off:], ldc, a, lda, b, ldb, m, n, k)
				var generic []float64
				eachKernelPath(t, func(path string) {
					c, slab := poisoned(size, off)
					MulTN(c, ldc, a, lda, b, ldb, m, n, k)
					if !sameBits(slab, wantSlab) {
						t.Fatalf("m=%d n=%d k=%d (%s): slab not bitwise the reference", m, n, k, path)
					}
					if !sameBits(a, a0) || !sameBits(b, b0) {
						t.Fatalf("m=%d n=%d k=%d (%s): operand modified", m, n, k, path)
					}
					if path == "generic" {
						generic = slab
					} else if !sameBits(slab, generic) {
						t.Fatalf("m=%d n=%d k=%d: %s path not bitwise the generic path", m, n, k, path)
					}
				})
			}
		}
	}
}

// TestMulTNArguments: leading dimensions too small for the shape are a
// panic, never a read or write past a row.
func TestMulTNArguments(t *testing.T) {
	buf := make([]float64, 64)
	for name, call := range map[string]func(){
		"ldc < n":    func() { MulTN(buf, 3, buf, 4, buf, 4, 4, 4, 2) },
		"lda < m":    func() { MulTN(buf, 4, buf, 3, buf, 4, 4, 4, 2) },
		"ldb < n":    func() { MulTN(buf, 4, buf, 4, buf, 3, 4, 4, 2) },
		"short c":    func() { MulTN(buf[:15], 4, buf, 4, buf, 4, 4, 4, 2) },
		"short a":    func() { MulTN(buf, 4, buf[:7], 4, buf, 4, 4, 4, 2) },
		"short b":    func() { MulTN(buf, 4, buf, 4, buf[:7], 4, 4, 4, 2) },
		"negative k": func() { MulTN(buf, 4, buf, 4, buf, 4, 4, 4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestEliminateArguments: mis-sized pivot records and right-hand sides
// are errors, never panics or silent truncation.
func TestEliminateArguments(t *testing.T) {
	const n = 4
	f := make([]float64, 3*n)
	for _, tc := range []struct {
		name string
		call func(a *Matrix) error
	}{
		{"Factor short piv", func(a *Matrix) error { return Factor(a, make([]int, n-1)) }},
		{"Factor long piv", func(a *Matrix) error { return Factor(a, make([]int, n+1)) }},
		{"Factor nil piv", func(a *Matrix) error { return Factor(a, nil) }},
		{"FactorBlocked short piv", func(a *Matrix) error { return FactorBlocked(a, make([]int, n-1), 2) }},
		{"FactorBlocked long piv", func(a *Matrix) error { return FactorBlocked(a, make([]int, n+1), 2) }},
		{"FactorBlocked big block short piv", func(a *Matrix) error { return FactorBlocked(a, make([]int, n-1), n) }},
		{"SolveDGESV short piv", func(a *Matrix) error { return SolveDGESV(a, f[:n], make([]int, n-1)) }},
		{"SolveGE short b", func(a *Matrix) error { return SolveGE(a, f[:n-1], f[:n]) }},
		{"SolveGE long b", func(a *Matrix) error { return SolveGE(a, f[:n+1], f[:n]) }},
		{"SolveGE short x", func(a *Matrix) error { return SolveGE(a, f[:n], f[:n-1]) }},
	} {
		a := NewMatrix(n)
		for i := 0; i < n; i++ {
			a.Set(i, i, 1)
		}
		if err := tc.call(a); err == nil || err == ErrSingular {
			t.Errorf("%s: err = %v, want a size error", tc.name, err)
		}
	}
}

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

// TestEliminateAllocFree: the sweep's zero-allocation contract reaches
// down to every wrapper.
func TestEliminateAllocFree(t *testing.T) {
	const n, k = 27, 3
	rng := rand.New(rand.NewSource(17))
	a0, bs0 := randomSystem(t, rng, n, k)
	a := NewMatrix(n)
	bs := make([]float64, k*n)
	x := make([]float64, n)
	piv := make([]int, n)
	for name, fn := range map[string]func() error{
		"SolveGE":       func() error { return SolveGE(a, bs[:n], x) },
		"Factor":        func() error { return Factor(a, piv) },
		"FactorBlocked": func() error { return FactorBlocked(a, piv, 8) },
		"SolveDGESV":    func() error { return SolveDGESV(a, bs[:n], piv) },
	} {
		allocs := testing.AllocsPerRun(20, func() {
			a.CopyFrom(a0)
			copy(bs, bs0)
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}
