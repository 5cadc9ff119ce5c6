package core

import (
	"fmt"
	"time"

	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// This file is the engine's batched task kernel (Config.Kernel ==
// KernelBatched, the default): all energy groups of one (ordinate,
// element) task executed as one group-batched, allocation-free body, on
// group lanes end to end — the engine's LayoutLanes keeps psi, psiLag,
// mPrev and the stored source products [angle][element][node][group].
//
//   - RHS batching: the right-hand sides of every group are assembled in
//     one pass over the element, lane-major (node-major, groups fastest).
//     The volumetric term does not depend on the angle, so no task forms
//     it: PrepareInner stores M q_tot once per inner and the task starts
//     from one contiguous copy of its element's block (loadSourceLanes;
//     P1 and time-dependent runs add their angle-dependent remainders
//     from the same kind of stored product). The face pass is face-outer:
//     the per-face bookkeeping the scalar kernel repeats per group —
//     inflow classification, neighbour lookup, the conforming-face
//     permutation chase, the face block om·Fx + om·Fy + om·Fz — happens
//     once per face, each upwind node's groups are gathered as one
//     contiguous run into a lane-major panel, and one la.FaceApplyLanes
//     call applies the block to every group (the one face-apply routine
//     of this kernel: four block rows per pass, four groups per vector).
//   - Factorisation batching: the per-group matrix is base + sigma_t,g M,
//     so groups with equal sigma_t share the matrix bitwise. The solver's
//     panel plan cuts each material's equal-sigma_t runs into panels:
//     stretches of single-group runs into panels of four (or two), and
//     every other run — a multi-group run, a leftover single one, the
//     one group of a one-group problem — into a panel of width 1. Every
//     panel is formed and factored as one la.FactorLanes call
//     (factorPanel, one system per vector lane) and solved by
//     la.TriSolveLanes on the task's psi block itself (solveLanes: the
//     permuted right-hand sides are gathered straight into the panel's
//     column stripe of the block, solved in place with the block's row
//     stride, and nothing is scattered back). A ramped library pays one
//     factorisation per four groups; a width-1 panel's run of k groups
//     pays one for all k, solved as k single-lane columns, so on a
//     flat-sigma_t library the whole task costs one factorisation.
//   - Factor store: the matrices themselves repeat across tasks and
//     across inners — base + sigma_t,g M is a pure function of (ordinate,
//     element-geometry class, outflow set, material) — so the solver's
//     one store of resident local operators (faccache.go) factors each
//     distinct matrix once, per solver, and matching tasks skip assembly
//     and factorisation entirely. Filled by the first task to need an
//     entry, or all at once at New under Config.PreAssembled; either way
//     this body is the one that runs. The same panel plan lays out the
//     store's entries and sets the solve (factorCache.solve): the fill
//     factors each panel in place in the entry, and its solve is the
//     uncached panel's. Every entry also holds the task's fused inflow
//     face blocks, so a cached task forms no face block and reads no
//     face matrix.
//   - Zero steady-state allocations: every buffer the body touches is
//     pre-sized in workerState at New from the artifact's
//     KernelDims (pinned by TestSweepTaskAllocFree).
//
// Bitwise contract: for every group the floating-point operation
// sequence is identical to the scalar kernel's — batching reorders work
// across independent groups only, and the layout moves values without
// arithmetic. TestKernelBatchedBitwise pins batched == scalar flux bit
// for bit across the boundary-condition matrix.

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
// The task assembles its right-hand sides lane-major in worker scratch
// (st.rhs) and each panel gathers its permuted right-hand sides from
// there straight into the task's psi slab and solves them in place
// (solveLanes): under LayoutLanes ([angle][element][node][group]) the
// slab is one contiguous block, no task of the current phase reads
// psi(a, e) before this task's counters resolve, and every in-task read
// (the stored source products, upwind neighbours, psiLag, streamed halos,
// reflective mirrors) comes from a different slab.
//
// On a solve failure the remaining panels still execute (matching the
// scalar kernel, where every group runs) and the first error is
// returned, naming the failed panel's first group; that panel's groups
// keep the previous iterate's psi, which only a sweep that already
// returned an error can observe.
func (s *Solver) solveElemBatched(st *workerState, a, e int) error {
	instr := s.cfg.Instrument
	mat := s.cfg.Mesh.Elems[e].Material
	// Factor store: a ready entry for this task's (ordinate, geometry
	// class, material) key replaces base assembly, panel formation,
	// factorisation and the face blocks' fusion with stored results —
	// bitwise identical output (see faccache.go). The lookup runs before
	// the assembly timer starts: a task that fills the entry charges the
	// fill to the solve timer itself.
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
	n, nG := s.nN, s.nG
	pb := s.psiIdx(a, e, 0)
	slab := s.psi[pb : pb+nG*n : pb+nG*n]
	rhs := st.rhs[: nG*n : nG*n]
	var blocks []float64
	if fent != nil {
		blocks = s.fc.blocks(fent, len(s.sigtRuns[mat]))
	}
	s.assembleRHSAll(st, rhs, blocks, a, e)
	if instr {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
	if fent != nil {
		if instr {
			t0 = time.Now()
		}
		s.fc.solve(s, fent, mat, rhs, slab)
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
		return nil
	}
	runs := s.sigtRuns[mat]
	var firstErr error
	for _, p := range s.plan[mat] {
		// Formed and factored as one la.FactorLanes call in worker
		// scratch, then solved as the store's panels are.
		w := int(p.w)
		lu, perm := st.panel[:w*n*n], st.perm[:w*n]
		if err := s.factorPanel(st, lu, perm, e, mat, p, instr); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: angle %d elem %d group %d: %w", a, e, runs[p.r0].g0, err)
			}
			continue
		}
		if instr {
			t0 = time.Now()
		}
		off := st.off[:w*n]
		laneOffsets(off, perm, n, w, nG)
		solveLanes(lu, off, rhs, slab, runs[p.r0], n, w, nG)
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
	}
	return firstErr
}

// assembleRHSAll builds the right-hand sides of every group of one
// (angle, elem) task into rhs (lane-major: node-major with the groups
// fastest): the hoisted volumetric source (loadSourceLanes) minus the
// upwind inflow terms. Per group the arithmetic is identical to
// assembleRHS's; the face pass runs face-outer, one face's upwind values
// of every group gathered into one lane-major panel — an upwind node's
// groups are one contiguous run of psi, for interior, lagged and
// reflective faces alike; External slots are group-major and transposed —
// and the face block applied to all groups by one la.FaceApplyLanes call.
// blocks, when not nil, holds the fused block of each inflow face in
// ascending face order (a store entry's); otherwise each is fused into
// worker scratch here, the same la.Fuse3 sum.
func (s *Solver) assembleRHSAll(st *workerState, rhs, blocks []float64, a, e int) {
	nf := s.re.NF
	nG := s.nG
	s.loadSourceLanes(rhs, a, e)

	// Faces are visited in ascending order, so each group sees its face
	// terms in the scalar kernel's order.
	t := s.topos[a]
	panel := st.up[: nf*nG : nf*nG]
	in := 0 // inflow faces so far: the index of this face's stored block
	for f := 0; f < fem.NumFaces; f++ {
		if !t.IsInflow(e, f) {
			continue
		}
		in++
		fc := &s.cfg.Mesh.Elems[e].Faces[f]
		var up []float64
		switch {
		case fc.Neighbor >= 0:
			// Interior (or lagged) upwind neighbour: its coincident nodes
			// through the conforming-face permutation, reordered into our
			// face-node ordering.
			src := s.psi
			if t.Lagged != nil && t.IsLagged(e, f) {
				src = s.psiLag
			}
			perm := s.conn.Perm[e][f]
			nbNodes := s.re.FaceNodes[fc.NeighborFace]
			pb := s.psiIdx(a, fc.Neighbor, 0)
			if nG == 1 {
				for l := range panel {
					panel[l] = src[pb+nbNodes[perm[l]]]
				}
			} else {
				for l := 0; l < nf; l++ {
					o := pb + nbNodes[perm[l]]*nG
					gatherRun(panel[l*nG:l*nG+nG], src[o:o+nG])
				}
			}
			up = panel
		case s.ext != nil:
			// External inflow: slots were filled before the sweep (block
			// Jacobi) or before ResolveExternal made this task ready; a
			// (face, angle) slot is group-major.
			fi := s.ext.faceIdx[e*fem.NumFaces+f]
			if fi < 0 {
				continue // vacuum
			}
			off := (int(fi)*s.nA + a) * nG * nf
			up = s.ext.data[off : off+nG*nf]
			if nG > 1 {
				for g := 0; g < nG; g++ {
					for l, v := range up[g*nf : g*nf+nf] {
						panel[l*nG+g] = v
					}
				}
				up = panel
			}
		case s.cfg.Reflect[fem.FaceDim(f)]:
			// Reflective face: the mirror ordinate's flux on the same
			// face nodes of this element.
			src, ma := s.mirror(a, f)
			pb := s.psiIdx(ma, e, 0)
			for l, node := range s.re.FaceNodes[f] {
				o := pb + node*nG
				gatherRun(panel[l*nG:l*nG+nG], src[o:o+nG])
			}
			up = panel
		default:
			continue // vacuum
		}
		var fb []float64
		if blocks != nil {
			fb = blocks[(in-1)*nf*nf : in*nf*nf]
		} else {
			fb = st.fb[: nf*nf : nf*nf]
			face := &s.em[e].Face[f]
			om := s.cfg.Quad.Angles[a].Omega
			la.Fuse3(fb, face[0], face[1], face[2], om[0], om[1], om[2])
		}
		// Inflow faces have Omega . n < 0, so subtracting the surface
		// term adds the upwind in-flow.
		la.FaceApplyLanes(rhs, fb, up, s.re.FaceNodes[f], nG)
	}
}

// gatherRun copies one upwind node's groups: moves, not copy, because
// the runs are a few entries long and a runtime memmove call costs more
// than moving them.
func gatherRun(dst, src []float64) {
	switch len(dst) {
	case 2:
		dst[0], dst[1] = src[0], src[1]
	case 4:
		s := src[:4:4]
		dst[0], dst[1], dst[2], dst[3] = s[0], s[1], s[2], s[3]
	default:
		src = src[:len(dst)]
		for g, v := range src {
			dst[g] = v
		}
	}
}
