package core

import (
	"fmt"
	"time"

	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// This file is the engine's batched task kernel (Config.Kernel ==
// KernelBatched, the default): all energy groups of one (ordinate,
// element) task executed as one group-batched, allocation-free body.
//
//   - RHS batching: the right-hand sides of every group are assembled in
//     one pass over the element. The volumetric term does not depend on
//     the angle, so no task forms it: PrepareInner stores M q_tot once per
//     inner and the task starts from a copy of its element's block
//     (loadSource; P1 and time-dependent runs add their angle-dependent
//     remainders from the same kind of stored product). The face pass is
//     face-outer: the per-face bookkeeping the scalar kernel repeats per
//     group — inflow classification, neighbour lookup, the conforming-face
//     permutation chase, fusing the face block om·Fx + om·Fy + om·Fz —
//     happens once per face, every group's upwind face values are
//     gathered into one group-major panel, and the face block is applied
//     to the panel four groups at a time with each block row held in
//     registers (subInflowPanel, the one face-apply loop of this kernel).
//   - Factorisation batching: the per-group matrix is base + sigma_t,g M,
//     so groups with equal sigma_t share the matrix bitwise. The kernel
//     factors once per run of equal-sigma_t groups and solves the run's
//     RHS block with the multi-RHS routines (la.SolveGEMulti /
//     la.SolveFactoredMulti), amortising the O(n^3) factor across the
//     run; on flat-sigma_t groups (and any within-material group
//     structure with repeats) the whole task costs one factorisation.
//     Runs of one group — every group of a library with a per-group
//     sigma_t ramp — batch across groups instead: the solver's panel
//     plan cuts them into panels of four (or two), and each panel is
//     formed and factored as one la.FactorLanes call (factorPanel, one
//     system per vector lane) and solved as one la.TriSolveLanes call
//     (solveLanes), so ramped libraries pay once per four groups on the
//     uncached path too. A width-1 panel — a multi-group run, a leftover
//     single run, a one-group problem — and a panel whose factorisation
//     meets a zero pivot run per run as above.
//   - Factor store: the matrices themselves repeat across tasks and
//     across inners — base + sigma_t,g M is a pure function of (ordinate,
//     element-geometry class, outflow set, material) — so the solver's
//     one store of resident local operators (faccache.go) factors each
//     distinct matrix once, per solver, and matching tasks skip assembly
//     and factorisation entirely. Filled by the first task to need an
//     entry, or all at once at New under Config.PreAssembled; either way
//     this body is the one that runs. The same panel plan lays out the
//     store's entries and sets the solve (factorCache.solve): a lane
//     panel's fill factors in place in the entry, and its solve is the
//     uncached panel's; a width-1 panel runs la.SolveFactoredMulti in
//     place.
//   - Zero steady-state allocations: every buffer the body touches is
//     pre-sized in workerState at New from the artifact's
//     KernelDims (pinned by TestSweepTaskAllocFree).
//
// Bitwise contract: for every group the floating-point operation
// sequence is identical to the scalar kernel's — batching reorders work
// across independent groups only. TestKernelBatchedBitwise pins batched
// == scalar flux bit for bit across the boundary-condition matrix.

// sigtRun is one maximal run of consecutive groups sharing a sigma_t
// value within one material: groups [g0, g0+k) of the effective totals.
type sigtRun struct {
	g0, k int32
}

// buildSigtRuns computes the per-material equal-sigma_t run decomposition
// of the effective total cross sections (the batched kernel's
// factorisation-sharing structure).
func buildSigtRuns(sigtEff [][]float64) [][]sigtRun {
	runs := make([][]sigtRun, len(sigtEff))
	for m, row := range sigtEff {
		for g0 := 0; g0 < len(row); {
			g := g0 + 1
			for g < len(row) && row[g] == row[g0] {
				g++
			}
			runs[m] = append(runs[m], sigtRun{g0: int32(g0), k: int32(g - g0)})
			g0 = g
		}
	}
	return runs
}

// solveElemBatched is the batched engine task body; see the file comment.
//
// The RHS block is assembled and solved directly in the task's psi slab:
// the engine layout ([angle][element][group][node]) makes the task's
// groups contiguous, no task of the current phase reads psi(a, e) before
// this task's counters resolve, and every in-task read (the stored
// source products, upwind neighbours, psiLag, streamed halos, reflective
// mirrors) comes from a different slab — so the solve lands in place and
// the scalar kernel's X-to-psi block store disappears.
//
// On a solve failure the remaining sigma_t runs still execute (matching
// the scalar kernel, where every group runs) and the first error is
// returned; the failed run's groups are left holding their right-hand
// sides rather than the previous iterate's psi, which only a sweep that
// already returned an error can observe.
func (s *Solver) solveElemBatched(st *workerState, a, e int) error {
	instr := s.cfg.Instrument
	mat := s.cfg.Mesh.Elems[e].Material
	// Factor store: a ready entry for this task's (ordinate, geometry
	// class, material) key replaces base assembly, per-run matrix
	// formation and factorisation with pure triangular solves — bitwise
	// identical output (see faccache.go). The lookup runs before the
	// assembly timer starts: a task that fills the entry charges the fill
	// to the solve timer itself.
	var fent *facEntry
	if s.fc != nil {
		fent = s.fc.acquire(s, st, a, e, mat)
	}
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	if fent == nil {
		s.assembleBase(a, e, st.base)
	}
	rhs := s.psi[s.psiIdx(a, e, 0) : s.psiIdx(a, e, 0)+s.nG*s.nN]
	s.assembleRHSAll(st, rhs, a, e)
	if instr {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
	n := s.nN
	if fent != nil {
		if instr {
			t0 = time.Now()
		}
		s.fc.solve(s, st, fent, mat, rhs)
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
		return nil
	}
	mass := s.em[e].Mass
	sigt := s.sigtEff[mat]
	runs := s.sigtRuns[mat]
	ge := s.cfg.Solver == SolverGE
	var firstErr error
	for _, p := range s.plan[mat] {
		r0, w := int(p.r0), int(p.w)
		if w > 1 {
			// A lane panel: formed and factored as one la.FactorLanes
			// call in worker scratch, then solved as the store's
			// panels are. A singular panel falls through to the per-run
			// path, which reports (and leaves behind) what it always has.
			lu, perm := st.panel[:w*n*n], st.perm[:w*n]
			if s.factorPanel(st, lu, perm, e, mat, p, instr) == nil {
				if instr {
					t0 = time.Now()
				}
				g0 := int(runs[r0].g0)
				solveLanes(lu, perm, rhs[g0*n:(g0+w)*n], st.lanes, n, w)
				if instr {
					st.solveNS += time.Since(t0).Nanoseconds()
				}
				continue
			}
		}
		for _, run := range runs[r0 : r0+w] {
			g0, k := int(run.g0), int(run.k)
			if instr {
				t0 = time.Now()
			}
			la.AddScaledTo(st.ws.A.Data, st.base, mass, sigt[g0])
			if instr {
				st.asmNS += time.Since(t0).Nanoseconds()
				t0 = time.Now()
			}
			var err error
			if ge {
				err = la.SolveGEMulti(st.ws.A, rhs[g0*n:(g0+k)*n], k)
			} else if err = la.FactorBlocked(st.ws.A, st.ws.Piv, la.DefaultBlockSize); err == nil {
				la.SolveFactoredMulti(st.ws.A, st.ws.Piv, rhs[g0*n:(g0+k)*n], k)
			}
			if instr {
				st.solveNS += time.Since(t0).Nanoseconds()
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: angle %d elem %d group %d: %w", a, e, g0, err)
			}
		}
	}
	return firstErr
}

// assembleRHSAll builds the right-hand sides of every group of one
// (angle, elem) task into rhs (group-major, node fastest — the caller
// passes the task's own psi slab): the hoisted volumetric source
// (loadSource) minus the upwind inflow terms. Per group the arithmetic is
// identical to assembleRHS; the face pass runs face-outer with one
// face's upwind values of all groups gathered into a group-major panel
// and the face block applied to the whole panel (subInflowPanel).
func (s *Solver) assembleRHSAll(st *workerState, rhs []float64, a, e int) {
	n := s.nN
	nf := s.re.NF
	nG := s.nG
	rhs = rhs[: nG*n : nG*n]
	s.loadSource(rhs, a, e, 0)

	// Face pass: subtract the upwind inflow of each inflow face from
	// every group's RHS while the face's block and gather indices are
	// hot. Faces are visited in ascending order, so each group sees its
	// face terms in the scalar kernel's order.
	t := s.topos[a]
	panel := st.up[: nG*nf : nG*nf]
	for f := 0; f < fem.NumFaces; f++ {
		if !t.IsInflow(e, f) {
			continue
		}
		fc := &s.cfg.Mesh.Elems[e].Faces[f]
		switch {
		case fc.Neighbor >= 0:
			// Interior (or lagged) upwind neighbour: resolve the
			// conforming-face gather indices once, then gather every
			// group's face values into the panel.
			src := s.psi
			if t.Lagged != nil && t.IsLagged(e, f) {
				src = s.psiLag
			}
			perm := s.conn.Perm[e][f]
			nbNodes := s.re.FaceNodes[fc.NeighborFace]
			gather := st.gather[:nf:nf]
			for l := range gather {
				gather[l] = int32(nbNodes[perm[l]])
			}
			pb := s.psiIdx(a, fc.Neighbor, 0)
			for g := 0; g < nG; g++ {
				pslab := src[pb+g*n : pb+g*n+n]
				up := panel[g*nf : g*nf+nf][:len(gather)]
				for l, node := range gather {
					up[l] = pslab[node]
				}
			}
			s.subInflowPanel(st, rhs, panel, a, e, f)
		case s.ext != nil:
			// External inflow: slots were filled before the sweep (block
			// Jacobi) or before ResolveExternal made this task ready, and
			// a (face, angle) slot is already group-major — no gather.
			fi := s.ext.faceIdx[e*fem.NumFaces+f]
			if fi < 0 {
				continue // vacuum
			}
			off := (int(fi)*s.nA + a) * nG * nf
			s.subInflowPanel(st, rhs, s.ext.data[off:off+nG*nf], a, e, f)
		case s.cfg.Reflect[fem.FaceDim(f)]:
			// Reflective face: gather the mirror ordinate's flux on the
			// same face nodes of this element, every group, into the panel.
			src, ma := s.mirror(a, f)
			fn := s.re.FaceNodes[f]
			pb := s.psiIdx(ma, e, 0)
			for g := 0; g < nG; g++ {
				pslab := src[pb+g*n : pb+g*n+n]
				up := panel[g*nf : g*nf+nf][:len(fn)]
				for l, node := range fn {
					up[l] = pslab[node]
				}
			}
			s.subInflowPanel(st, rhs, panel, a, e, f)
		}
	}
}

// subInflowPanel subtracts one inflow face's surface term from the RHS of
// len(up)/nf consecutive groups: rhs holds their nN-vectors and up their
// upwind face values (nf each, in our face-node ordering), both
// group-major. The nf x nf face block om·Fx + om·Fy + om·Fz is fused into
// worker scratch first, once for all groups (the same sum the scalar
// kernel forms entry by entry). Groups go four at a time: each block row
// is loaded once and feeds four independent accumulators, which is what
// lifts the pass off the one-add-latency-per-term chain of a single dot
// product; the nG mod 4 tail runs one group at a time. Per (group, row)
// the order over l, and per RHS entry the order over faces, are the
// scalar kernel's, so the result is bit for bit assembleRHS's. (Inflow
// faces have Omega . n < 0, so subtracting the surface term adds the
// upwind in-flow.)
func (s *Solver) subInflowPanel(st *workerState, rhs, up []float64, a, e, f int) {
	n := s.nN
	nf := s.re.NF
	k := len(up) / nf
	if k == 0 {
		return
	}
	om := s.cfg.Quad.Angles[a].Omega
	face := &s.em[e].Face[f]
	fb := st.fb[: nf*nf : nf*nf]
	la.Fuse3(fb, face[0], face[1], face[2], om[0], om[1], om[2])
	fn := s.re.FaceNodes[f]
	g := 0
	for ; g+4 <= k; g += 4 {
		b0 := rhs[g*n : g*n+n]
		b1 := rhs[(g+1)*n : (g+1)*n+n]
		b2 := rhs[(g+2)*n : (g+2)*n+n]
		b3 := rhs[(g+3)*n : (g+3)*n+n]
		// Length-matched reslices: the prove pass drops the inner loop's
		// bounds checks (check_bce).
		u0 := up[g*nf : g*nf+nf]
		u1 := up[(g+1)*nf : (g+1)*nf+nf][:len(u0)]
		u2 := up[(g+2)*nf : (g+2)*nf+nf][:len(u0)]
		u3 := up[(g+3)*nf : (g+3)*nf+nf][:len(u0)]
		for r, gi := range fn {
			fr := fb[r*nf : r*nf+nf][:len(u0)]
			var a0, a1, a2, a3 float64
			for l, m := range fr {
				a0 += m * u0[l]
				a1 += m * u1[l]
				a2 += m * u2[l]
				a3 += m * u3[l]
			}
			b0[gi] -= a0
			b1[gi] -= a1
			b2[gi] -= a2
			b3[gi] -= a3
		}
	}
	for ; g < k; g++ {
		b := rhs[g*n : g*n+n]
		u := up[g*nf : g*nf+nf]
		for r, gi := range fn {
			fr := fb[r*nf : r*nf+nf][:len(u)]
			acc := 0.0
			for l, v := range u {
				acc += fr[l] * v
			}
			b[gi] -= acc
		}
	}
}
