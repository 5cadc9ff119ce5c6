package core

import "unsnap/internal/fem"

// SetBoundary installs (or replaces) the boundary-flux callback after
// construction. Reflective boundaries need the solver's own flux state, so
// they cannot be wired through Config before New returns. Any existing
// engine schedule is dropped (octant-fusion eligibility depends on the
// callback); the next sweep rebuilds it. The workers are the pool's and
// stay.
func (s *Solver) SetBoundary(fn BoundaryFlux) {
	s.cfg.Boundary = fn
	s.engine = nil
}

// SetBalanceSkip installs the boundary-face filter Run's balance report
// uses (see ComputeBalanceExcluding); pair it with SetBoundary when the
// callback feeds faces that are not true leakage surfaces.
func (s *Solver) SetBalanceSkip(fn func(elem, face int) bool) { s.balanceSkip = fn }

// ReflectiveBoundary returns a BoundaryFlux implementing specular
// reflection on the domain faces normal to the selected dimensions
// (SNAP's reflective boundary condition): the incoming flux of ordinate a
// on a boundary face equals the outgoing flux of the mirrored ordinate at
// the same physical points — the same element's face nodes, so no
// geometric matching is needed.
//
// Octants are swept in a fixed order within each inner iteration, so for
// one of each mirrored pair the reflected data is from the current
// iteration and for the other it lags by one iteration; the fixed point is
// the same and the iteration converges, it just needs a few more inners
// than a vacuum problem of the same size.
func ReflectiveBoundary(s *Solver, dims [3]bool) BoundaryFlux {
	return func(a, e, f, g int, buf []float64) []float64 {
		d := fem.FaceDim(f)
		if !dims[d] {
			return nil // vacuum on this dimension's faces
		}
		ma := s.cfg.Quad.MirrorAngle(a, d)
		base := s.psiIdx(ma, e, g)
		for k, node := range s.re.FaceNodes[f] {
			buf[k] = s.psi[base+node]
		}
		return buf
	}
}

// ReflectiveSkip returns the boundary-face filter matching
// ReflectiveBoundary for use with ComputeBalanceExcluding: reflected faces
// carry no net leakage at convergence and must not be counted.
func ReflectiveSkip(s *Solver, dims [3]bool) func(e, f int) bool {
	return func(e, f int) bool { return dims[fem.FaceDim(f)] }
}
