package fem

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// unitCube returns the geometry of the unit cube.
func unitCube() *Geometry {
	g := &Geometry{}
	for c := 0; c < 8; c++ {
		g.V[c] = [3]float64{float64(c & 1), float64((c >> 1) & 1), float64((c >> 2) & 1)}
	}
	return g
}

// boxGeometry returns an axis-aligned box with the given origin and extents.
func boxGeometry(origin, ext [3]float64) *Geometry {
	g := &Geometry{}
	for c := 0; c < 8; c++ {
		g.V[c] = [3]float64{
			origin[0] + float64(c&1)*ext[0],
			origin[1] + float64((c>>1)&1)*ext[1],
			origin[2] + float64((c>>2)&1)*ext[2],
		}
	}
	return g
}

// perturbedCube returns a unit cube with every vertex randomly displaced
// by up to eps (small enough to avoid inversion).
func perturbedCube(rng *rand.Rand, eps float64) *Geometry {
	g := unitCube()
	for c := 0; c < 8; c++ {
		for d := 0; d < 3; d++ {
			g.V[c][d] += (rng.Float64()*2 - 1) * eps
		}
	}
	return g
}

func TestGeometryMapCorners(t *testing.T) {
	g := boxGeometry([3]float64{1, 2, 3}, [3]float64{2, 3, 4})
	corners := [][3]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}}
	for c, xi := range corners {
		got := g.Map(xi)
		if got != g.V[c] {
			t.Fatalf("corner %d: Map(%v) = %v, want %v", c, xi, got, g.V[c])
		}
	}
}

func TestGeometryJacobianBox(t *testing.T) {
	g := boxGeometry([3]float64{0, 0, 0}, [3]float64{2, 3, 4})
	j := g.Jacobian([3]float64{0.3, 0.6, 0.9})
	want := [3][3]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	for d := 0; d < 3; d++ {
		for e := 0; e < 3; e++ {
			if math.Abs(j[d][e]-want[d][e]) > 1e-14 {
				t.Fatalf("J[%d][%d] = %v, want %v", d, e, j[d][e], want[d][e])
			}
		}
	}
	if det := Det3(j); math.Abs(det-24) > 1e-12 {
		t.Fatalf("det = %v, want 24", det)
	}
}

func TestInvTranspose(t *testing.T) {
	j := [3][3]float64{{2, 1, 0}, {0, 3, 1}, {1, 0, 4}}
	c, det, err := InvTranspose3(j)
	if err != nil {
		t.Fatal(err)
	}
	// Verify J^T * C = I (C = J^{-T}).
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += j[k][a] * c[k][b]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("(J^T C)[%d][%d] = %v, want %v", a, b, s, want)
			}
		}
	}
	if det <= 0 {
		t.Fatalf("det = %v, want positive", det)
	}
}

func TestInvTransposeInverted(t *testing.T) {
	j := [3][3]float64{{-1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if _, _, err := InvTranspose3(j); err == nil {
		t.Fatal("expected error for negative determinant")
	}
}

func TestIsAxisAlignedBox(t *testing.T) {
	g := boxGeometry([3]float64{1, 1, 1}, [3]float64{2, 2, 2})
	if _, _, ok := g.IsAxisAlignedBox(); !ok {
		t.Fatal("box not recognised")
	}
	g.V[7][0] += 0.01
	if _, _, ok := g.IsAxisAlignedBox(); ok {
		t.Fatal("perturbed hex misclassified as box")
	}
}

func TestNewRefElementInvalid(t *testing.T) {
	if _, err := NewRefElement(0); err == nil {
		t.Fatal("expected error for order 0")
	}
}

func TestRefElementCounts(t *testing.T) {
	for p := 1; p <= 5; p++ {
		re, err := NewRefElement(p)
		if err != nil {
			t.Fatal(err)
		}
		nd := p + 1
		if re.N != nd*nd*nd || re.NF != nd*nd || re.ND != nd {
			t.Fatalf("p=%d: wrong counts N=%d NF=%d ND=%d", p, re.N, re.NF, re.ND)
		}
		for f := 0; f < NumFaces; f++ {
			if len(re.FaceNodes[f]) != re.NF {
				t.Fatalf("p=%d face %d: %d nodes, want %d", p, f, len(re.FaceNodes[f]), re.NF)
			}
		}
	}
}

func TestRefElementFaceNodesOnFace(t *testing.T) {
	re, _ := NewRefElement(3)
	for f := 0; f < NumFaces; f++ {
		dim := FaceDim(f)
		want := 0.0
		if FaceSide(f) == 1 {
			want = 1.0
		}
		for _, n := range re.FaceNodes[f] {
			if math.Abs(re.NodePos[n][dim]-want) > 1e-14 {
				t.Fatalf("face %d node %d not on face: %v", f, n, re.NodePos[n])
			}
		}
	}
}

func TestRefElementNodeIndexRoundTrip(t *testing.T) {
	re, _ := NewRefElement(4)
	for i := 0; i < re.N; i++ {
		ix, iy, iz := re.NodeCoords(i)
		if re.NodeIndex(ix, iy, iz) != i {
			t.Fatalf("node index round trip failed at %d", i)
		}
	}
}

func TestRefElementPartitionOfUnityAtQuadPoints(t *testing.T) {
	re, _ := NewRefElement(3)
	for q := range re.QPos {
		sum := 0.0
		var gsum [3]float64
		for i := 0; i < re.N; i++ {
			sum += re.Val[q*re.N+i]
			for d := 0; d < 3; d++ {
				gsum[d] += re.GradXi[(q*re.N+i)*3+d]
			}
		}
		if math.Abs(sum-1) > 1e-11 {
			t.Fatalf("q=%d: basis sum %v", q, sum)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(gsum[d]) > 1e-9 {
				t.Fatalf("q=%d: gradient sum %v", q, gsum)
			}
		}
	}
}

func TestPhysicalNodesBox(t *testing.T) {
	re, _ := NewRefElement(2)
	g := boxGeometry([3]float64{1, 0, 0}, [3]float64{2, 2, 2})
	pos := re.PhysicalNodes(g)
	// Node (1,1,1) of an order-2 element is the centre.
	centre := pos[re.NodeIndex(1, 1, 1)]
	want := [3]float64{2, 1, 1}
	for d := 0; d < 3; d++ {
		if math.Abs(centre[d]-want[d]) > 1e-14 {
			t.Fatalf("centre node = %v, want %v", centre, want)
		}
	}
}

func TestEvalFieldInterpolates(t *testing.T) {
	re, _ := NewRefElement(2)
	// Field f(xi) = xi_0 + 2 xi_1 + 3 xi_2 (linear, exactly representable).
	coef := make([]float64, re.N)
	for i, xp := range re.NodePos {
		coef[i] = xp[0] + 2*xp[1] + 3*xp[2]
	}
	for _, xi := range [][3]float64{{0.1, 0.2, 0.3}, {0.9, 0.5, 0.7}} {
		got := re.EvalField(coef, xi)
		want := xi[0] + 2*xi[1] + 3*xi[2]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("EvalField(%v) = %v, want %v", xi, got, want)
		}
	}
}

func TestFootprintBytesTableI(t *testing.T) {
	// Table I of the paper: order -> (matrix dim, kB).
	cases := []struct {
		p      int
		n      int
		wantKB float64
	}{
		{1, 8, 0.5},
		{2, 27, 5.7},
		{3, 64, 32.0},
		{4, 125, 122.1},
		{5, 216, 364.5},
	}
	for _, c := range cases {
		bytes := FootprintBytes(c.p)
		if bytes != 8*c.n*c.n {
			t.Fatalf("p=%d: footprint %d, want %d", c.p, bytes, 8*c.n*c.n)
		}
		kb := float64(bytes) / 1024
		if math.Abs(kb-c.wantKB) > 0.06 {
			t.Fatalf("p=%d: %.1f kB, paper says %.1f kB", c.p, kb, c.wantKB)
		}
	}
}

func TestBoxMatricesLinearAnalytic(t *testing.T) {
	re, _ := NewRefElement(1)
	g := boxGeometry([3]float64{0, 0, 0}, [3]float64{2, 3, 4})
	em, err := re.ComputeMatrices(g)
	if err != nil {
		t.Fatal(err)
	}
	vol := 24.0
	if math.Abs(em.Volume-vol) > 1e-12 {
		t.Fatalf("volume = %v, want %v", em.Volume, vol)
	}
	// M[0][0] = vol * (1/3)^3.
	if got, want := em.Mass[0], vol/27; math.Abs(got-want) > 1e-12 {
		t.Fatalf("M[0][0] = %v, want %v", got, want)
	}
	// M[0][7] (opposite corners) = vol * (1/6)^3.
	if got, want := em.Mass[7], vol/216; math.Abs(got-want) > 1e-12 {
		t.Fatalf("M[0][7] = %v, want %v", got, want)
	}
	// Grad^x[0][0] = hy*hz * G1[0][0]*M1[0][0]*M1[0][0] = 12 * (-1/2)(1/3)(1/3).
	if got, want := em.Grad[0][0], 12.0*(-0.5)/9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Gx[0][0] = %v, want %v", got, want)
	}
	// +x face: normal (1,0,0); F[x] = area * 2D mass; F[y] = F[z] = 0.
	if em.Normal[FaceXHi] != [3]float64{1, 0, 0} {
		t.Fatalf("+x normal = %v", em.Normal[FaceXHi])
	}
	area := 12.0
	if got, want := em.Face[FaceXHi][0][0], area/9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("+x F[0][0] = %v, want %v", got, want)
	}
	for d := 1; d < 3; d++ {
		for _, v := range em.Face[FaceXHi][d] {
			if v != 0 {
				t.Fatalf("+x face has nonzero component in dim %d", d)
			}
		}
	}
	// -x face mass entries are negated.
	if got, want := em.Face[FaceXLo][0][0], -area/9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("-x F[0][0] = %v, want %v", got, want)
	}
}

func TestGeneralMatchesBoxPath(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		re, _ := NewRefElement(p)
		g := boxGeometry([3]float64{0.5, 1, 2}, [3]float64{1.5, 0.5, 2})
		box, err := re.ComputeMatrices(g)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := re.generalMatrices(g)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, a, b []float64) {
			t.Helper()
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-10 {
					t.Fatalf("p=%d %s[%d]: box %v vs general %v", p, name, i, a[i], b[i])
				}
			}
		}
		check("mass", box.Mass, gen.Mass)
		for d := 0; d < 3; d++ {
			check("grad", box.Grad[d], gen.Grad[d])
		}
		for f := 0; f < NumFaces; f++ {
			for d := 0; d < 3; d++ {
				check("face", box.Face[f][d], gen.Face[f][d])
			}
		}
		if math.Abs(box.Volume-gen.Volume) > 1e-10 {
			t.Fatalf("p=%d volume mismatch %v vs %v", p, box.Volume, gen.Volume)
		}
	}
}

func TestMassSymmetricPositiveDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	re, _ := NewRefElement(2)
	g := perturbedCube(rng, 0.15)
	em, err := re.ComputeMatrices(g)
	if err != nil {
		t.Fatal(err)
	}
	n := re.N
	for i := 0; i < n; i++ {
		if em.Mass[i*n+i] <= 0 {
			t.Fatalf("mass diagonal %d not positive: %v", i, em.Mass[i*n+i])
		}
		for j := 0; j < n; j++ {
			if math.Abs(em.Mass[i*n+j]-em.Mass[j*n+i]) > 1e-12 {
				t.Fatalf("mass not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestMassRowSumsEqualVolume(t *testing.T) {
	// sum_ij M_ij = Int (sum_i u_i)(sum_j u_j) = Int 1 = volume.
	rng := rand.New(rand.NewSource(12))
	for _, p := range []int{1, 3} {
		re, _ := NewRefElement(p)
		g := perturbedCube(rng, 0.1)
		em, err := re.ComputeMatrices(g)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range em.Mass {
			sum += v
		}
		if math.Abs(sum-em.Volume) > 1e-10 {
			t.Fatalf("p=%d: mass total %v != volume %v", p, sum, em.Volume)
		}
	}
}

// TestDivergenceIdentity verifies the discrete integration-by-parts
// identity that makes DG upwinding conservative:
//
//	sum_d Omega_d (G^d + (G^d)^T) == sum_f sum_d Omega_d F^{f,d}
//
// (face matrices scattered into volume-node indexing). It must hold to
// machine precision for any hexahedron because the quadrature is exact
// for trilinear geometry.
func TestDivergenceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, p := range []int{1, 2, 3} {
		re, _ := NewRefElement(p)
		for trial := 0; trial < 3; trial++ {
			g := perturbedCube(rng, 0.15)
			em, err := re.ComputeMatrices(g)
			if err != nil {
				t.Fatal(err)
			}
			omega := [3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
			n := re.N
			lhs := make([]float64, n*n)
			for d := 0; d < 3; d++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						lhs[i*n+j] += omega[d] * (em.Grad[d][i*n+j] + em.Grad[d][j*n+i])
					}
				}
			}
			rhs := make([]float64, n*n)
			for f := 0; f < NumFaces; f++ {
				fn := re.FaceNodes[f]
				for d := 0; d < 3; d++ {
					for k, gi := range fn {
						for l, gj := range fn {
							rhs[gi*n+gj] += omega[d] * em.Face[f][d][k*re.NF+l]
						}
					}
				}
			}
			for i := range lhs {
				if math.Abs(lhs[i]-rhs[i]) > 1e-10 {
					t.Fatalf("p=%d trial=%d: divergence identity broken at %d: %v vs %v",
						p, trial, i, lhs[i], rhs[i])
				}
			}
		}
	}
}

func TestComputeMatricesInvertedElement(t *testing.T) {
	re, _ := NewRefElement(1)
	g := unitCube()
	// Swap two x-corners to invert the element.
	g.V[0], g.V[1] = g.V[1], g.V[0]
	g.V[2], g.V[3] = g.V[3], g.V[2]
	g.V[4], g.V[5] = g.V[5], g.V[4]
	g.V[6], g.V[7] = g.V[7], g.V[6]
	if _, err := re.ComputeMatrices(g); err == nil {
		t.Fatal("expected inverted-element error")
	}
}

func TestFaceNormalsUnitLength(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	re, _ := NewRefElement(2)
	g := perturbedCube(rng, 0.15)
	em, err := re.ComputeMatrices(g)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < NumFaces; f++ {
		n := em.Normal[f]
		l := math.Sqrt(n[0]*n[0] + n[1]*n[1] + n[2]*n[2])
		if math.Abs(l-1) > 1e-12 {
			t.Fatalf("face %d: |n| = %v", f, l)
		}
	}
}

func TestFaceNormalsOutwardOnCube(t *testing.T) {
	re, _ := NewRefElement(1)
	em, err := re.ComputeMatrices(unitCube())
	if err != nil {
		t.Fatal(err)
	}
	want := [NumFaces][3]float64{
		{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1},
	}
	for f := 0; f < NumFaces; f++ {
		for d := 0; d < 3; d++ {
			if math.Abs(em.Normal[f][d]-want[f][d]) > 1e-12 {
				t.Fatalf("face %d normal %v, want %v", f, em.Normal[f], want[f])
			}
		}
	}
}

func TestFaceMatrixTotalIsSignedArea(t *testing.T) {
	// sum_kl F^{f,d}[k][l] = Int_f n_d dA: for the unit cube this is the
	// signed unit area in the face dimension and 0 in the tangents.
	re, _ := NewRefElement(2)
	em, _ := re.ComputeMatrices(unitCube())
	for f := 0; f < NumFaces; f++ {
		for d := 0; d < 3; d++ {
			sum := 0.0
			for _, v := range em.Face[f][d] {
				sum += v
			}
			want := 0.0
			if d == FaceDim(f) {
				want = 1.0
				if FaceSide(f) == 0 {
					want = -1.0
				}
			}
			if math.Abs(sum-want) > 1e-11 {
				t.Fatalf("face %d dim %d: integral %v, want %v", f, d, sum, want)
			}
		}
	}
}

// referenceMatrices is the scalar quadrature loop that integrated a
// general hexahedron before generalMatrices went through la.MulTN, kept
// verbatim (its own allocations aside) as the bitwise oracle: every
// entry a sum over q in ascending order, face coefficients that are
// exactly zero skipped.
func referenceMatrices(re *RefElement, geo *Geometry) (*ElementMatrices, error) {
	n := re.N
	em := &ElementMatrices{N: n, NF: re.NF}
	em.Mass = make([]float64, n*n)
	for d := 0; d < 3; d++ {
		em.Grad[d] = make([]float64, n*n)
	}
	for f := 0; f < NumFaces; f++ {
		for d := 0; d < 3; d++ {
			em.Face[f][d] = make([]float64, re.NF*re.NF)
		}
	}
	// Scratch for the physical gradients of all basis functions at one
	// quadrature point.
	gx := make([]float64, n)
	gy := make([]float64, n)
	gz := make([]float64, n)

	for q := range re.QPos {
		j := geo.Jacobian(re.QPos[q])
		c, det, err := InvTranspose3(j)
		if err != nil {
			return nil, err
		}
		w := re.QWeight[q] * det
		em.Volume += w
		vals := re.Val[q*n : (q+1)*n]
		grads := re.GradXi[q*n*3 : (q+1)*n*3]
		for i := 0; i < n; i++ {
			g0 := grads[i*3]
			g1 := grads[i*3+1]
			g2 := grads[i*3+2]
			gx[i] = c[0][0]*g0 + c[0][1]*g1 + c[0][2]*g2
			gy[i] = c[1][0]*g0 + c[1][1]*g1 + c[1][2]*g2
			gz[i] = c[2][0]*g0 + c[2][1]*g1 + c[2][2]*g2
		}
		for i := 0; i < n; i++ {
			wvi := w * vals[i]
			wgx := w * gx[i]
			wgy := w * gy[i]
			wgz := w * gz[i]
			mRow := em.Mass[i*n : (i+1)*n]
			xRow := em.Grad[0][i*n : (i+1)*n]
			yRow := em.Grad[1][i*n : (i+1)*n]
			zRow := em.Grad[2][i*n : (i+1)*n]
			for jj := 0; jj < n; jj++ {
				vj := vals[jj]
				mRow[jj] += wvi * vj
				xRow[jj] += wgx * vj
				yRow[jj] += wgy * vj
				zRow[jj] += wgz * vj
			}
		}
	}

	// Faces.
	nf := re.NF
	for f := 0; f < NumFaces; f++ {
		t1, t2 := FaceTangents(f)
		sign := faceNormalSign[f]
		for q := range re.FQ2 {
			xi := re.FQPos3[f][q]
			j := geo.Jacobian(xi)
			// Tangent vectors are the Jacobian columns of the two in-face
			// reference dimensions.
			a := [3]float64{j[0][t1], j[1][t1], j[2][t1]}
			b := [3]float64{j[0][t2], j[1][t2], j[2][t2]}
			ndA := [3]float64{
				sign * (a[1]*b[2] - a[2]*b[1]),
				sign * (a[2]*b[0] - a[0]*b[2]),
				sign * (a[0]*b[1] - a[1]*b[0]),
			}
			fw := re.FWeight[q]
			fvals := re.FVal[f][q*nf : (q+1)*nf]
			for d := 0; d < 3; d++ {
				wd := fw * ndA[d]
				if wd == 0 {
					continue
				}
				fm := em.Face[f][d]
				for k := 0; k < nf; k++ {
					wk := wd * fvals[k]
					if wk == 0 {
						continue
					}
					row := fm[k*nf : (k+1)*nf]
					for l := 0; l < nf; l++ {
						row[l] += wk * fvals[l]
					}
				}
			}
		}
		em.Normal[f] = re.faceCentreNormal(geo, f)
	}
	return em, nil
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// checkMatricesBitwise holds ComputeMatrices to referenceMatrices on one
// general geometry: the same error, or every field bit for bit. It
// returns the matrices, nil on an invalid element.
func checkMatricesBitwise(t *testing.T, re *RefElement, g *Geometry) *ElementMatrices {
	t.Helper()
	want, errRef := referenceMatrices(re, g)
	got, err := re.ComputeMatrices(g)
	if (err == nil) != (errRef == nil) || (err != nil && err.Error() != errRef.Error()) {
		t.Fatalf("p=%d: err %v, reference %v", re.P, err, errRef)
	}
	if err != nil {
		return nil
	}
	if got.N != want.N || got.NF != want.NF {
		t.Fatalf("p=%d: sizes %d/%d, reference %d/%d", re.P, got.N, got.NF, want.N, want.NF)
	}
	if !sameBits(got.Mass, want.Mass) {
		t.Fatalf("p=%d: Mass not bitwise the reference", re.P)
	}
	for d := 0; d < 3; d++ {
		if !sameBits(got.Grad[d], want.Grad[d]) {
			t.Fatalf("p=%d: Grad[%d] not bitwise the reference", re.P, d)
		}
		for f := 0; f < NumFaces; f++ {
			if !sameBits(got.Face[f][d], want.Face[f][d]) {
				t.Fatalf("p=%d: Face[%d][%d] not bitwise the reference", re.P, f, d)
			}
		}
	}
	for f := 0; f < NumFaces; f++ {
		if !sameBits(got.Normal[f][:], want.Normal[f][:]) {
			t.Fatalf("p=%d: Normal[%d] not bitwise the reference", re.P, f)
		}
	}
	if math.Float64bits(got.Volume) != math.Float64bits(want.Volume) {
		t.Fatalf("p=%d: Volume %v, reference %v", re.P, got.Volume, want.Volume)
	}
	return got
}

// oracleGeometry derives a general hexahedron from a seed: the unit cube
// with every vertex displaced by up to eps (large eps inverts it), then
// the faces named in the low six bits of planar pinned to a coordinate
// plane through 0 (for a high face the cube is first shifted by -1 in
// that dimension; of two opposite faces only the low one is pinned).
// Every Jacobian term in a pinned coordinate is then w*0, so two ndA
// components of the face are exact (signed) zeros — the coefficients the
// old loop skipped — while the element as a whole stays general.
func oracleGeometry(seed int64, eps float64, planar uint8) *Geometry {
	g := perturbedCube(rand.New(rand.NewSource(seed)), eps)
	for dim := 0; dim < 3; dim++ {
		side := 0
		switch {
		case planar>>(2*dim)&1 == 1:
		case planar>>(2*dim+1)&1 == 1:
			side = 1
			for c := range g.V {
				g.V[c][dim]--
			}
		default:
			continue
		}
		for c := range g.V {
			if c>>dim&1 == side {
				g.V[c][dim] = 0
			}
		}
	}
	return g
}

// TestComputeMatricesBitwise: the la.MulTN integration is bitwise the
// scalar loop at orders 1-4 on twisted elements, elements with exactly
// axis-aligned faces, and inverted ones (same error).
func TestComputeMatricesBitwise(t *testing.T) {
	for p := 1; p <= 4; p++ {
		re, err := NewRefElement(p)
		if err != nil {
			t.Fatal(err)
		}
		valid := 0
		for trial := 0; trial < 12; trial++ {
			eps := []float64{0.05, 0.2, 0.45}[trial%3]
			planar := []uint8{0, 0x01, 0x2a, 0x3f}[trial/3]
			em := checkMatricesBitwise(t, re, oracleGeometry(int64(100*p+trial), eps, planar))
			if em == nil {
				continue
			}
			valid++
			// A pinned face's in-plane directional matrices sum products
			// with exact-zero coefficients only: they must come out +0.
			for f := 0; f < NumFaces; f++ {
				for d := 0; d < 3; d++ {
					dim := FaceDim(f)
					pinned := planar>>f&1 == 1 && (FaceSide(f) == 0 || planar>>(2*dim)&1 == 0)
					if !pinned || d == dim {
						continue
					}
					for _, v := range em.Face[f][d] {
						if math.Float64bits(v) != 0 {
							t.Fatalf("p=%d face %d dim %d: %v, want +0", p, f, d, v)
						}
					}
				}
			}
		}
		if valid < 8 {
			t.Fatalf("p=%d: only %d of 12 oracle elements valid", p, valid)
		}
	}
}

func FuzzComputeMatricesBitwise(f *testing.F) {
	for p := uint8(0); p < 4; p++ {
		f.Add(int64(p), p, uint8(40), uint8(0))
		f.Add(int64(p)+10, p, uint8(200), uint8(0x09))
		f.Add(int64(p)+20, p, uint8(255), uint8(0x3f))
	}
	f.Fuzz(func(t *testing.T, seed int64, order, scale, planar uint8) {
		re, err := NewRefElement(1 + int(order%4))
		if err != nil {
			t.Fatal(err)
		}
		g := oracleGeometry(seed, 0.6*float64(scale)/255, planar)
		if _, _, ok := g.IsAxisAlignedBox(); ok {
			return // the tensor-product path, not the quadrature
		}
		checkMatricesBitwise(t, re, g)
	})
}

// heapBytesPerCall is the heap, size-class rounding included, that one
// call of fn allocates, averaged over runs calls.
func heapBytesPerCall(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

var (
	sinkHeader   *ElementMatrices
	sinkMatrices []float64
)

// TestComputeMatricesAllocs: a general element costs three allocations,
// the ElementMatrices header and its volume and face blocks (the
// integration scratch lives on the stack up to order 4), and, size
// classes included, at most 3% more heap than the 22 separate matrices
// (order 3's face block is rounded to whole pages: +2.4%; one slab would
// be +10% at orders 1 and 2). A cache holds artifacts by their entry
// length, so heap per element is resident memory per cached artifact.
func TestComputeMatricesAllocs(t *testing.T) {
	g := perturbedCube(rand.New(rand.NewSource(15)), 0.15)
	for p := 1; p <= 3; p++ {
		re, _ := NewRefElement(p)
		call := func() {
			if _, err := re.ComputeMatrices(g); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, call); allocs > 3 {
			t.Fatalf("ComputeMatrices at order %d: %v allocs per call, want <= 3", p, allocs)
		}
		got := heapBytesPerCall(50, call)
		separate := heapBytesPerCall(50, func() {
			sinkHeader = &ElementMatrices{}
			for i := 0; i < 4; i++ {
				sinkMatrices = make([]float64, re.N*re.N)
			}
			for i := 0; i < NumFaces*3; i++ {
				sinkMatrices = make([]float64, re.NF*re.NF)
			}
		})
		if got > 1.03*separate {
			t.Fatalf("ComputeMatrices at order %d: %.0f heap bytes per call, the 22 separate matrices %.0f", p, got, separate)
		}
	}
}

// TestVolumeMatchesComputeMatrices: the volume-only path returns
// ElementMatrices.Volume's bits, box or general, and the same error on an
// inverted element.
func TestVolumeMatchesComputeMatrices(t *testing.T) {
	for p := 1; p <= 3; p++ {
		re, _ := NewRefElement(p)
		geos := []*Geometry{boxGeometry([3]float64{0.5, 1, 2}, [3]float64{1.5, 0.5, 2})}
		for trial := 0; trial < 6; trial++ {
			geos = append(geos, oracleGeometry(int64(trial), []float64{0.1, 0.5}[trial%2], uint8(trial)))
		}
		for i, g := range geos {
			em, errEM := re.ComputeMatrices(g)
			vol, err := re.Volume(g)
			if (err == nil) != (errEM == nil) || (err != nil && err.Error() != errEM.Error()) {
				t.Fatalf("p=%d geometry %d: err %v, ComputeMatrices %v", p, i, err, errEM)
			}
			if err == nil && math.Float64bits(vol) != math.Float64bits(em.Volume) {
				t.Fatalf("p=%d geometry %d: Volume %v, ElementMatrices.Volume %v", p, i, vol, em.Volume)
			}
		}
	}
}
