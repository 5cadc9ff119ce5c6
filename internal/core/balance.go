package core

import (
	"math"

	"unsnap/internal/fem"
)

// Balance is the global particle balance of the current solution: at
// convergence the fixed source must equal absorption plus net boundary
// leakage, because the DG upwind discretisation is locally conservative
// and the scattering matrix redistributes without loss.
type Balance struct {
	Source     float64 // total fixed-source emission
	Absorption float64 // sum over groups of Int sigma_a phi dV
	Leakage    float64 // net outflow through the domain boundary
	// Residual is |Source - Absorption - Leakage| / max(Source, 1).
	Residual float64
}

// ComputeBalance integrates the balance terms from the current flux.
// Leakage counts only the faces particles leave the problem through: the
// reflective faces (Config.Reflect) and the External faces, whose outflow
// is a peer rank's inflow, are skipped, so at convergence the balance of a
// reflective problem or of the sum of a partitioned run's ranks closes.
func (s *Solver) ComputeBalance() Balance {
	var b Balance
	lib := s.cfg.Lib
	m := s.cfg.Mesh

	// Per-element integration weights: Int u_i dV is the i-th mass row sum.
	rowSum := make([]float64, s.nN)
	// Per-face-node integration weights: Int n_d u_k dA is the k-th column
	// sum of the directional face matrix (summed over rows).
	colSum := make([]float64, s.re.NF)

	for e := 0; e < s.nE; e++ {
		em := s.em[e]
		mat := m.Elems[e].Material
		for i := 0; i < s.nN; i++ {
			rs := 0.0
			for _, v := range em.Mass[i*s.nN : (i+1)*s.nN] {
				rs += v
			}
			rowSum[i] = rs
		}
		// SNAP's fixed source emits with unit strength in every energy
		// group, so the total emission carries a factor of numGroups.
		b.Source += m.Elems[e].Source * em.Volume * float64(s.nG)
		for g := 0; g < s.nG; g++ {
			siga := lib.Absorb[mat][g]
			base := s.phiIdx(e, g)
			for i := 0; i < s.nN; i++ {
				b.Absorption += siga * s.phi[base+i] * rowSum[i]
			}
		}
		// Boundary leakage: outflow faces carry our flux out; inflow faces
		// are vacuum.
		for f := 0; f < fem.NumFaces; f++ {
			if m.Elems[e].Faces[f].Neighbor >= 0 || s.cfg.Reflect[fem.FaceDim(f)] {
				continue
			}
			if s.ext != nil && s.ext.faceIdx[e*fem.NumFaces+f] >= 0 {
				continue
			}
			for a := 0; a < s.nA; a++ {
				if s.topos[a].IsInflow(e, f) {
					continue
				}
				om := s.cfg.Quad.Angles[a].Omega
				w := s.cfg.Quad.Angles[a].Weight
				fn := s.re.FaceNodes[f]
				nf := s.re.NF
				for l := 0; l < nf; l++ {
					cs := 0.0
					for k := 0; k < nf; k++ {
						cs += om[0]*em.Face[f][0][k*nf+l] + om[1]*em.Face[f][1][k*nf+l] + om[2]*em.Face[f][2][k*nf+l]
					}
					colSum[l] = cs
				}
				for g := 0; g < s.nG; g++ {
					base := s.psiIdx(a, e, g)
					for l, node := range fn {
						b.Leakage += w * s.psi[base+node*s.stride] * colSum[l]
					}
				}
			}
		}
	}
	denom := b.Source
	if denom < 1 {
		denom = 1
	}
	b.Residual = math.Abs(b.Source-b.Absorption-b.Leakage) / denom
	return b
}
