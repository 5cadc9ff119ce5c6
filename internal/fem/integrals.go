package fem

import (
	"math"

	"unsnap/internal/la"
)

// ElementMatrices holds the precomputed basis-pair integrals of one
// element. These are the "13 different arrays" the paper's assembly reads:
// combined with the direction cosines, the total cross section and the
// upwind fluxes they yield the local system A psi = b for every
// angle/group without further integration.
//
// Index conventions: volume matrices are N x N row-major with the
// derivative on the row (test) index; face matrices are NF x NF over the
// face-node lists of RefElement.FaceNodes, with the element's outward
// normal folded into the (unnormalised) weight so that
// Face[f][d][k*NF+l] = Int_f n_d u_k u_l dA.
type ElementMatrices struct {
	N, NF int
	Mass  []float64
	Grad  [3][]float64
	Face  [NumFaces][3][]float64
	// Volume is the integral of det J over the element.
	Volume float64
}

// ComputeMatrices integrates all basis-pair matrices for one element.
// Axis-aligned boxes take an exact tensor-product fast path; general
// (twisted) hexahedra are integrated with the reference quadrature, which
// is exact for trilinear geometry. An inverted element (non-positive
// Jacobian) returns an error.
//
// Every entry of a general element's matrices is a quadrature sum taken
// in ascending point order from +0 (la.MulTN's contract). That order is
// part of every flux bit the solver produces: the bitwise oracle in
// fem_test.go and the solver's flux digests pin it.
func (re *RefElement) ComputeMatrices(geo *Geometry) (*ElementMatrices, error) {
	if _, ext, ok := geo.IsAxisAlignedBox(); ok {
		return re.boxMatrices(ext), nil
	}
	return re.generalMatrices(geo)
}

// Volume returns the element's volume exactly as ComputeMatrices records
// it in ElementMatrices.Volume (the same sum in the same order), without
// integrating the matrices.
func (re *RefElement) Volume(geo *Geometry) (float64, error) {
	if _, ext, ok := geo.IsAxisAlignedBox(); ok {
		return ext[0] * ext[1] * ext[2], nil
	}
	vol := 0.0
	for q := range re.QPos {
		_, det, err := InvTranspose3(geo.Jacobian(re.QPos[q]))
		if err != nil {
			return 0, err
		}
		vol += re.QWeight[q] * det
	}
	return vol, nil
}

// newElementMatrices allocates the matrices of one element in two
// blocks and returns them too: vol holds Mass, Grad[0..2] (stride n*n),
// faces holds Face[f][0..2] for each face f in turn (stride nf*nf), so
// generalMatrices writes a row of the four volume matrices, or the three
// directional matrices of a face, as one strided block. Two blocks, not
// one: each fits a Go size class about as tightly as the 22 separate
// slices did, where a single order-2 slab (35 KB) would be rounded up to
// whole pages, 17% more heap per cached element.
func newElementMatrices(n, nf int) (em *ElementMatrices, vol, faces []float64) {
	em = &ElementMatrices{N: n, NF: nf}
	vol = make([]float64, 4*n*n)
	faces = make([]float64, NumFaces*3*nf*nf)
	em.Mass = vol[: n*n : n*n]
	for d := 0; d < 3; d++ {
		em.Grad[d] = vol[(d+1)*n*n : (d+2)*n*n : (d+2)*n*n]
	}
	for f := 0; f < NumFaces; f++ {
		for d := 0; d < 3; d++ {
			lo := (3*f + d) * nf * nf
			em.Face[f][d] = faces[lo : lo+nf*nf : lo+nf*nf]
		}
	}
	return em, vol, faces
}

// mass1D and grad1D integrate the 1D basis-pair matrices on [0,1]:
// mass[i][j] = Int l_i l_j, grad[i][j] = Int l_i' l_j.
func (re *RefElement) mass1D() ([]float64, []float64) {
	nd := re.ND
	m := make([]float64, nd*nd)
	g := make([]float64, nd*nd)
	rule := re.quadNodes1D()
	for q := range rule.x {
		w := rule.w[q]
		for i := 0; i < nd; i++ {
			vi := re.Basis.Eval(i, rule.x[q])
			di := re.Basis.Deriv(i, rule.x[q])
			for j := 0; j < nd; j++ {
				vj := re.Basis.Eval(j, rule.x[q])
				m[i*nd+j] += w * vi * vj
				g[i*nd+j] += w * di * vj
			}
		}
	}
	return m, g
}

type rule1D struct{ x, w []float64 }

// quadNodes1D recovers the 1D rule underlying the tensor quadrature.
func (re *RefElement) quadNodes1D() rule1D {
	x := make([]float64, re.NQ)
	w := make([]float64, re.NQ)
	// The first NQ volume points vary fastest in x with y=z fixed at the
	// first node; extract the 1D rule from them.
	w0 := 0.0
	for q := 0; q < re.NQ; q++ {
		x[q] = re.QPos[q][0]
	}
	// Weights: the 3D weight of point (qx,0,0) is w1[qx]*w1[0]^2.
	// Recover w1 up to normalisation, then normalise to sum 1.
	for q := 0; q < re.NQ; q++ {
		w[q] = re.QWeight[q]
		w0 += w[q]
	}
	for q := range w {
		w[q] /= w0 // 1D GL weights on [0,1] sum to exactly 1
	}
	return rule1D{x: x, w: w}
}

// boxMatrices computes exact matrices for an axis-aligned box with
// extents ext via tensor products of the 1D matrices.
func (re *RefElement) boxMatrices(ext [3]float64) *ElementMatrices {
	em, _, _ := newElementMatrices(re.N, re.NF)
	nd := re.ND
	m1, g1 := re.mass1D()
	hx, hy, hz := ext[0], ext[1], ext[2]
	em.Volume = hx * hy * hz

	for iz := 0; iz < nd; iz++ {
		for iy := 0; iy < nd; iy++ {
			for ix := 0; ix < nd; ix++ {
				i := re.NodeIndex(ix, iy, iz)
				for jz := 0; jz < nd; jz++ {
					mz := m1[iz*nd+jz]
					gz := g1[iz*nd+jz]
					for jy := 0; jy < nd; jy++ {
						my := m1[iy*nd+jy]
						gy := g1[iy*nd+jy]
						for jx := 0; jx < nd; jx++ {
							mx := m1[ix*nd+jx]
							gx := g1[ix*nd+jx]
							j := re.NodeIndex(jx, jy, jz)
							em.Mass[i*re.N+j] = hx * hy * hz * mx * my * mz
							em.Grad[0][i*re.N+j] = hy * hz * gx * my * mz
							em.Grad[1][i*re.N+j] = hx * hz * mx * gy * mz
							em.Grad[2][i*re.N+j] = hx * hy * mx * my * gz
						}
					}
				}
			}
		}
	}

	// Faces: constant outward normal along the face dimension; the only
	// nonzero directional matrix is the face dimension's, equal to +/- the
	// 2D mass scaled by the tangent extents.
	for f := 0; f < NumFaces; f++ {
		dim := FaceDim(f)
		t1, t2 := FaceTangents(f)
		area := ext[t1] * ext[t2]
		sign := float64(2*FaceSide(f) - 1) // -1 on a low face, +1 on a high one
		fm := em.Face[f][dim]
		for k2 := 0; k2 < nd; k2++ {
			for k1 := 0; k1 < nd; k1++ {
				k := k1 + nd*k2
				for l2 := 0; l2 < nd; l2++ {
					for l1 := 0; l1 < nd; l1++ {
						l := l1 + nd*l2
						fm[k*re.NF+l] = sign * area * m1[k1*nd+l1] * m1[k2*nd+l2]
					}
				}
			}
		}
	}
	return em
}

// stackScratch is the length of generalMatrices' stack buffer: enough
// for every order up to 4 (14*nq = 3024 doubles at order 4), so at those
// orders the matrices are integrated with no allocation beyond the
// ElementMatrices themselves.
const stackScratch = 3072

// generalMatrices integrates the matrices for an arbitrary hexahedron.
//
// Each integral is a sum over quadrature points q of a coefficient times
// a basis value, so each family of matrices is one product C = A^T B
// (la.MulTN) with q the inner dimension and B a basis table of the
// reference element. Volume: row i of Mass and Grad[0..2] is a four-row
// block of C whose coefficient panel holds, per q, w*phi_i, w*gx_i,
// w*gy_i and w*gz_i (w = QWeight*det, g the physical gradient); B is
// Val. Faces: the three directional matrices of face f are one 3*NF-row
// block whose panel holds (fw*ndA_d)*phi_k; B is FVal[f].
//
// Zero coefficients (the exact-zero normal components of a face lying in
// a coordinate plane) are not skipped, and skipping them would change no
// bit: each sum starts at +0 and so can never become -0 (in
// round-to-nearest x + y is -0 only when both are -0), and x + (+-0) = x
// for every other x.
func (re *RefElement) generalMatrices(geo *Geometry) (*ElementMatrices, error) {
	em, vol, faces := newElementMatrices(re.N, re.NF)
	n, nf := re.N, re.NF
	nq, nfq := len(re.QPos), len(re.FQ2)
	var buf [stackScratch]float64
	scratch := buf[:]
	if need := max(14*nq, 3*nf*nfq); need > len(scratch) {
		scratch = make([]float64, need)
	}

	// Per volume point: (J^{-1})^T row-major, then w.
	const cw = 10
	for q := range re.QPos {
		c, det, err := InvTranspose3(geo.Jacobian(re.QPos[q]))
		if err != nil {
			return nil, err
		}
		w := re.QWeight[q] * det
		em.Volume += w
		p := scratch[q*cw : q*cw+cw]
		for r := 0; r < 3; r++ {
			copy(p[3*r:3*r+3], c[r][:])
		}
		p[9] = w
	}
	panel := scratch[cw*nq : cw*nq+4*nq]
	for i := 0; i < n; i++ {
		for q := 0; q < nq; q++ {
			c := scratch[q*cw : q*cw+cw]
			g := re.GradXi[(q*n+i)*3 : (q*n+i)*3+3]
			gx := c[0]*g[0] + c[1]*g[1] + c[2]*g[2]
			gy := c[3]*g[0] + c[4]*g[1] + c[5]*g[2]
			gz := c[6]*g[0] + c[7]*g[1] + c[8]*g[2]
			w := c[9]
			a := panel[q*4 : q*4+4]
			a[0] = w * re.Val[q*n+i]
			a[1] = w * gx
			a[2] = w * gy
			a[3] = w * gz
		}
		la.MulTN(vol[i*n:], n*n, panel, 4, re.Val, n, 4, n, nq)
	}

	// Faces.
	panel = scratch[:3*nf*nfq]
	for f := 0; f < NumFaces; f++ {
		t1, t2 := FaceTangents(f)
		sign := faceNormalSign[f]
		for q := range re.FQ2 {
			j := geo.Jacobian(re.FQPos3[f][q])
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
			row := panel[q*3*nf : (q+1)*3*nf]
			for d := 0; d < 3; d++ {
				wd := fw * ndA[d]
				for k, v := range fvals {
					row[d*nf+k] = wd * v
				}
			}
		}
		la.MulTN(faces[f*3*nf*nf:], nf, panel, 3*nf, re.FVal[f], nf, 3*nf, nf, nfq)
	}
	return em, nil
}

// FaceUnitNormal returns the unit outward normal at the centre of face f:
// the exact axis direction for an axis-aligned box, the face-centre
// normal of the trilinear geometry otherwise. It is a face's one normal:
// internal/build classifies sweep directions by it and mesh.Partition
// takes the canonical pair normal of a cross-rank face from it, so the
// two agree bitwise. The element matrices carry none.
func (re *RefElement) FaceUnitNormal(geo *Geometry, f int) [3]float64 {
	if _, _, ok := geo.IsAxisAlignedBox(); ok {
		var n [3]float64
		n[FaceDim(f)] = float64(2*FaceSide(f) - 1)
		return n
	}
	t1, t2 := FaceTangents(f)
	dim := FaceDim(f)
	var xi [3]float64
	xi[t1], xi[t2] = 0.5, 0.5
	if FaceSide(f) == 1 {
		xi[dim] = 1
	}
	j := geo.Jacobian(xi)
	a := [3]float64{j[0][t1], j[1][t1], j[2][t1]}
	b := [3]float64{j[0][t2], j[1][t2], j[2][t2]}
	s := faceNormalSign[f]
	nvec := [3]float64{
		s * (a[1]*b[2] - a[2]*b[1]),
		s * (a[2]*b[0] - a[0]*b[2]),
		s * (a[0]*b[1] - a[1]*b[0]),
	}
	norm := math.Sqrt(nvec[0]*nvec[0] + nvec[1]*nvec[1] + nvec[2]*nvec[2])
	if norm > 0 {
		nvec[0] /= norm
		nvec[1] /= norm
		nvec[2] /= norm
	}
	return nvec
}

// FootprintBytes returns the FP64 storage of one local matrix of order p,
// the quantity tabulated in the paper's Table I.
func FootprintBytes(p int) int {
	n := (p + 1) * (p + 1) * (p + 1)
	return 8 * n * n
}
