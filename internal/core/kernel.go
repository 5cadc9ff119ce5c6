package core

import (
	"fmt"
	"time"

	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// This file is the engine's batched task kernel (Config.Kernel ==
// KernelBatched, the default): every lane of one (angle set, element)
// task executed as one batched, allocation-free body. A lane is one
// (ordinate, group) pair; an angle set is one ordinate, or up to four
// ordinates of one octant that share a sweep topology when the problem
// has one or two groups (angleSet, engine.go), so a one-group problem
// gets the vector lanes that groups give a multi-group one. The
// engine's LayoutLanes keeps psi, mPrev and the stored source products
// [angle][element][node][group].
//
//   - RHS batching: the right-hand sides of every lane are assembled in
//     one pass over the element, lane-major ([node][ordinate in
//     set][group]). The volumetric term does not depend on the angle, so
//     no task forms it: PrepareInner stores M q_tot once per inner and
//     each ordinate's lanes start from a copy of its element's block
//     (loadSourceLanes; P1 and time-dependent runs add their
//     angle-dependent remainders from the same kind of stored product).
//     The face pass is face-outer: the per-face bookkeeping the scalar
//     kernel repeats per group — inflow classification, neighbour lookup,
//     the conforming-face permutation chase — happens once per face for
//     every lane, each upwind node's groups are gathered as one contiguous
//     run of its ordinate's psi (or lag-store slot) into a lane-major
//     panel by the one upwind gather (assembleRHSLanes), and one call
//     applies the face to every lane: la.FaceApplyLanes with the one
//     block om·Fx + om·Fy + om·Fz a single ordinate's groups share,
//     la.FaceApplyLanesPerLane with each lane's own ordinate's block,
//     lane-interleaved, for a set of several (four block rows per pass,
//     four lanes per vector).
//   - Factorisation batching: the per-lane matrix is base_a + sigma_t,g M.
//     For a single ordinate, groups with equal sigma_t share the matrix
//     bitwise, and the solver's panel plan cuts each material's
//     equal-sigma_t runs into panels: stretches of single-group runs into
//     panels of four (or two), and every other run — a multi-group run, a
//     leftover single one, the one group of a one-group problem — into a
//     panel of width 1. Every panel is formed and factored as one
//     la.FactorLanes call (factorPanel, one system per vector lane) and
//     solved by la.TriSolveLanes on the task's psi block itself
//     (solveLanes: the permuted right-hand sides are gathered straight
//     into the panel's column stripe of the block, solved in place with
//     the block's row stride, and nothing is scattered back). A ramped
//     library pays one factorisation per four groups; a width-1 panel's
//     run of k groups pays one for all k, solved as k single-lane
//     columns. A set of several ordinates is one panel of all its lanes,
//     each over its own ordinate's base (factorSet: one
//     la.AddScaledToLanes over a base per lane, one la.FactorLanes),
//     solved in worker scratch and moved to each ordinate's psi slab
//     (solveSet).
//   - Factor store: the matrices themselves repeat across tasks and
//     across inners — base_a + sigma_t,g M is a pure function of
//     (ordinate, element-geometry class, outflow set, material) — so the
//     solver's one store of resident local operators (faccache.go)
//     factors each distinct matrix once, per solver, keyed on the angle
//     set, and matching tasks skip assembly and factorisation entirely.
//     Filled by the first task to need an entry, or all at once at New
//     under Config.PreAssembled; either way this body is the one that
//     runs. The fill factors each panel in place in the entry (the same
//     routines as the uncached task), and its solve is the uncached
//     panel's. Every entry also holds the task's fused inflow face blocks
//     (lane-interleaved for a set), so a cached task forms no face block
//     and reads no face matrix.
//   - Zero steady-state allocations: every buffer the body touches is
//     pre-sized in workerState at New from the artifact's KernelDims and
//     the widest set (pinned by TestSweepTaskAllocFree and
//     TestAngleSetSweepAllocFree).
//
// Bitwise contract: for every lane the floating-point operation sequence
// is identical to the scalar kernel's on that (ordinate, group) —
// batching reorders work across independent lanes only, and the layout
// moves values without arithmetic. TestKernelBatchedBitwise and
// TestKernelAngleSets pin batched == scalar flux bit for bit across the
// boundary-condition matrix.

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

// solveElemBatched is the batched engine task body — every lane of the
// task of the angle set holding ordinate a on element e; see the file
// comment.
//
// The task assembles its right-hand sides lane-major in worker scratch
// (st.rhs: [node][ordinate in set][group]). A single ordinate's panels
// gather their permuted right-hand sides from there straight into the
// task's psi slab and solve them in place (solveLanes): under LayoutLanes
// ([angle][element][node][group]) the slab is one contiguous block, no
// task of the current phase reads psi(a, e) before this task's counters
// resolve, and every in-task read (the stored source products, upwind
// neighbours, the lag store, streamed halos, reflective mirrors) comes from a
// different slab. A set of several ordinates solves its lanes in worker
// scratch and moves each ordinate's solutions to its own slab
// (solveSet).
//
// On a solve failure the remaining panels still execute (matching the
// scalar kernel, where every group runs) and the first error is
// returned, naming the failed panel's first group; that panel's groups
// keep the previous iterate's psi, which only a sweep that already
// returned an error can observe.
func (s *Solver) solveElemBatched(st *workerState, a, e int) error {
	instr := s.cfg.Instrument
	mat := s.cfg.Mesh.Elems[e].Material
	as := s.sets[s.setOf[a]]
	a = int(as.a0)
	// Factor store: a ready entry for this task's (set, geometry class,
	// material) key replaces base assembly, panel formation,
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
	n, nG := s.nN, s.nG
	nn := n * n
	if fent == nil {
		for o := 0; o < int(as.s); o++ {
			s.assembleBase(a+o, e, st.base[o*nn:o*nn+nn])
		}
	}
	w := int(as.s) * nG // the task's lanes
	rhs := st.rhs[: w*n : w*n]
	var blocks []float64
	if fent != nil {
		blocks = s.fc.blocks(fent, s.setFactors(as, mat))
	}
	s.assembleRHSLanes(st, rhs, blocks, as, e)
	if instr {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
	if fent != nil {
		if instr {
			t0 = time.Now()
		}
		s.fc.solve(s, st, fent, as, e, mat, rhs)
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
		return nil
	}
	if as.s > 1 {
		// One panel of every lane, formed and factored in worker scratch.
		lu, perm, off := st.panel[:w*nn], st.perm[:w*n], st.off[:w*n]
		if err := s.factorSet(st, lu, perm, as, e, mat, instr); err != nil {
			return fmt.Errorf("core: angle %d elem %d group 0: %w", a, e, err)
		}
		if instr {
			t0 = time.Now()
		}
		laneOffsets(off, perm, n, w, w)
		s.solveSet(lu, off, rhs, st.x[:w*n], as, e)
		if instr {
			st.solveNS += time.Since(t0).Nanoseconds()
		}
		return nil
	}
	pb := s.psiIdx(a, e, 0)
	slab := s.psi[pb : pb+nG*n : pb+nG*n]
	runs := s.sigtRuns[mat]
	var firstErr error
	for _, p := range s.plan[mat] {
		// Formed and factored as one la.FactorLanes call in worker
		// scratch, then solved as the store's panels are.
		w := int(p.w)
		lu, perm := st.panel[:w*nn], st.perm[:w*n]
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

// solveSet solves the lanes of a set of several ordinates against their
// factored panel (lu as la.FactorLanes leaves it, off from laneOffsets
// over the task's lane-major right-hand sides, one lane per (ordinate,
// group), ordinate-major): each lane's permuted right-hand side is
// gathered into x, one la.TriSolveLanes call solves every lane there,
// and each ordinate's solutions move to its own psi slab, n runs of nG.
func (s *Solver) solveSet(lu []float64, off []int32, rhs, x []float64, as angleSet, e int) {
	n, nG := s.nN, s.nG
	w := int(as.s) * nG
	solveLanes(lu, off, rhs, x, sigtRun{k: 1}, n, w, w)
	for o := 0; o < int(as.s); o++ {
		pb := s.psiIdx(int(as.a0)+o, e, 0)
		slab := s.psi[pb : pb+n*nG]
		if nG == 1 {
			for i := range slab {
				slab[i] = x[i*w+o]
			}
			continue
		}
		for i := 0; i < n; i++ {
			gatherRun(slab[i*nG:i*nG+nG], x[i*w+o*nG:i*w+o*nG+nG])
		}
	}
}

// assembleRHSLanes builds the right-hand sides of every lane of one
// (angle set, elem) task into rhs, [node][ordinate in set][group]: each
// ordinate's lanes start from its hoisted volumetric source
// (loadSourceLanes at row stride w) and lose the upwind inflow terms. Per
// lane the arithmetic is assembleRHS's. The face pass runs face-outer:
// the one upwind gather classifies a face once and writes the upwind
// values of every lane into a lane-major panel, rows w apart and ordinate
// o at lane offset o*nG — an interior neighbour's psi through the
// conforming-face permutation, a lagged neighbour's lag-store slot, an
// External slot (group-major, so transposed) or, on a reflective face,
// the mirror ordinate's psi on the same face nodes of this element (see
// Config.Reflect); under LayoutLanes an upwind node's groups are one
// contiguous run. One call then applies the face to every lane:
// la.FaceApplyLanes with the one block a single ordinate's groups share,
// la.FaceApplyLanesPerLane with each lane's own ordinate's block,
// lane-interleaved, for a set of several. blocks, when not nil, holds
// those blocks per inflow face in ascending face order (a store entry's);
// otherwise they are fused into worker scratch here (fuseFaceBlock).
func (s *Solver) assembleRHSLanes(st *workerState, rhs, blocks []float64, as angleSet, e int) {
	nf, nG := s.re.NF, s.nG
	a0, ns := int(as.a0), int(as.s)
	w := ns * nG
	for o := 0; o < ns; o++ {
		s.loadSourceLanes(rhs[o*nG:], a0+o, e, w)
	}

	// One classification serves every lane: the set's ordinates share
	// its topology. Faces are visited in ascending order, so each lane
	// sees its face terms in the scalar kernel's order.
	t := s.topos[a0]
	panel := st.up[: nf*w : nf*w]
	k := nf * nf // one inflow face's stored blocks
	fb := st.fb[:k:k]
	if ns > 1 {
		k *= w
		fb = st.fbl[:k:k]
	}
	in := 0 // inflow faces so far: the index of this face's stored blocks
	for f := 0; f < fem.NumFaces; f++ {
		if !t.IsInflow(e, f) {
			continue
		}
		in++
		fc := &s.cfg.Mesh.Elems[e].Faces[f]
		switch {
		case fc.Neighbor >= 0 && t.Lagged != nil && t.IsLagged(e, f):
			for o := 0; o < ns; o++ {
				slot := s.lagSlot(t, a0+o, e, f)
				for l := 0; l < nf; l++ {
					gatherRun(panel[l*w+o*nG:l*w+o*nG+nG], slot[l*nG:l*nG+nG])
				}
			}
		case fc.Neighbor >= 0:
			perm := s.conn.Perm[e][f]
			nbNodes := s.re.FaceNodes[fc.NeighborFace]
			for o := 0; o < ns; o++ {
				pb := s.psiIdx(a0+o, fc.Neighbor, 0)
				if nG == 1 {
					for l := 0; l < nf; l++ {
						panel[l*w+o] = s.psi[pb+nbNodes[perm[l]]]
					}
					continue
				}
				for l := 0; l < nf; l++ {
					q := pb + nbNodes[perm[l]]*nG
					gatherRun(panel[l*w+o*nG:l*w+o*nG+nG], s.psi[q:q+nG])
				}
			}
		case s.ext != nil:
			// The slots were filled before the sweep (block Jacobi) or
			// before ResolveExternal made this task ready.
			fi := s.ext.faceIdx[e*fem.NumFaces+f]
			if fi < 0 {
				continue // vacuum
			}
			for o := 0; o < ns; o++ {
				off := (int(fi)*s.nA + a0 + o) * nG * nf
				slot := s.ext.data[off : off+nG*nf]
				for g := 0; g < nG; g++ {
					for l, v := range slot[g*nf : g*nf+nf] {
						panel[l*w+o*nG+g] = v
					}
				}
			}
		case s.cfg.Reflect[fem.FaceDim(f)]:
			for o := 0; o < ns; o++ {
				pb := s.psiIdx(s.cfg.Quad.MirrorAngle(a0+o, fem.FaceDim(f)), e, 0)
				for l, node := range s.re.FaceNodes[f] {
					q := pb + node*nG
					gatherRun(panel[l*w+o*nG:l*w+o*nG+nG], s.psi[q:q+nG])
				}
			}
		default:
			continue // vacuum
		}
		blk := fb
		if blocks != nil {
			blk = blocks[(in-1)*k : in*k]
		} else {
			s.fuseFaceBlock(fb, st.fb, as, e, f)
		}
		// Inflow faces have Omega . n < 0, so subtracting the surface
		// term adds the upwind in-flow.
		if ns == 1 {
			la.FaceApplyLanes(rhs, blk, panel, s.re.FaceNodes[f], nG)
		} else {
			la.FaceApplyLanesPerLane(rhs, blk, panel, s.re.FaceNodes[f], w)
		}
	}
}

// fuseFaceBlock writes the fused inflow block om·Fx + om·Fy + om·Fz of
// face f of element e for the set's lanes into dst (blockLanes lanes):
// the one ordinate's block (la.Fuse3) for a single ordinate; otherwise
// each ordinate's block fused into tmp and spread over its nG lanes of
// the interleaved block, entry (r, k) of lane l at dst[(r*nf+k)*w + l].
func (s *Solver) fuseFaceBlock(dst, tmp []float64, as angleSet, e, f int) {
	face := &s.em[e].Face[f]
	if as.s == 1 {
		om := s.cfg.Quad.Angles[as.a0].Omega
		la.Fuse3(dst, face[0], face[1], face[2], om[0], om[1], om[2])
		return
	}
	nG := s.nG
	w := int(as.s) * nG
	for o := 0; o < int(as.s); o++ {
		om := s.cfg.Quad.Angles[int(as.a0)+o].Omega
		la.Fuse3(tmp, face[0], face[1], face[2], om[0], om[1], om[2])
		for i, v := range tmp {
			d := dst[i*w+o*nG : i*w+o*nG+nG]
			for g := range d {
				d[g] = v
			}
		}
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
