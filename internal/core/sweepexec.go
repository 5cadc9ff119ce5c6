package core

import (
	"errors"
	"fmt"
	"time"

	"unsnap/internal/build"
	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// errEngineStalled guards against scheduler bugs: the counter-driven
// executor found no ready task while elements remained. The task graphs
// are validated acyclic at build time, so this should be unreachable.
var errEngineStalled = errors.New("core: sweep engine stalled with unfinished elements")

// workerState is the per-worker scratch of the sweep loops: one dense
// workspace plus the group-independent matrix base, face gather buffers
// and local nanosecond accumulators (flushed into the solver's totals
// after each sweep to avoid contention). Every buffer is pre-sized at New
// from the artifact's kernel dimensions — the steady-state task path
// performs zero allocations (pinned by TestSweepTaskAllocFree).
type workerState struct {
	ws   *la.Workspace
	base []float64 // -Omega·G + outflow faces, one per ordinate of a set, reused per group (engine tasks, store fills)
	// bases names each lane's base (a slice of base) for la.AddScaledToLanes.
	bases   [maxSetLanes][]float64
	fb      []float64 // engine: an inflow face's block, fused where no store entry holds it
	fbl     []float64 // engine, sets only: the set's face blocks lane-interleaved, fused where no store entry holds them
	up      []float64 // upwind nodal values in our face ordering, node-major with the lanes fastest
	tmp     []float64 // massApply's copy of its operand (the source passes)
	rhs     []float64 // engine: the task's right-hand sides, lane-major
	x       []float64 // engine, sets only: the set's solutions, lane-major, before they move to psi
	panel   []float64 // engine: an uncached panel's (up to four) matrices, lane-interleaved, factored in place
	perm    []int     // a panel's per-lane row permutations, as la.FactorLanes leaves them
	off     []int32   // engine: an uncached panel's gather offsets (laneOffsets)
	asmNS   int64
	solveNS int64
}

// newWorkerState allocates one worker's scratch, sized from the
// artifact's kernel dimensions, the group count and the widest angle set
// (a task gathers one face's upwind values for all its lanes at once);
// the fused-block, right-hand-side and panel scratch are engine-only and
// skipped for the legacy bucket schemes (which still need base and perm:
// the factor store's eager fill, all width-1 panels, runs under every
// scheme).
func newWorkerState(dims build.KernelDims, nG, maxSet int, engine bool) *workerState {
	lanes := maxSet * nG
	st := &workerState{
		ws:   la.NewWorkspace(dims.NN),
		base: make([]float64, maxSet*dims.NN*dims.NN),
		up:   make([]float64, lanes*dims.NF),
		tmp:  make([]float64, dims.NN),
		perm: make([]int, 4*dims.NN),
	}
	if engine {
		st.fb = make([]float64, dims.NF*dims.NF)
		st.rhs = make([]float64, lanes*dims.NN)
		st.panel = make([]float64, 4*dims.NN*dims.NN)
		st.off = make([]int32, 4*dims.NN)
		if maxSet > 1 {
			st.fbl = make([]float64, lanes*dims.NF*dims.NF)
			st.x = make([]float64, lanes*dims.NN)
		}
	}
	return st
}

// massApply overwrites the n = len(tmp) entries v[0], v[stride], ...,
// v[(n-1)*stride] with M times them: row by row, one ascending dot
// product per entry. That order is part of the bitwise contract — it is
// what TestKernelFluxDigest's recorded digest was computed with — so it
// must not be blocked or reordered. tmp receives the operand.
func massApply(v []float64, stride int, mass, tmp []float64) {
	n := len(tmp)
	for i := range tmp {
		tmp[i] = v[i*stride]
	}
	for i := 0; i < n; i++ {
		// Length-matched reslice: the prove pass drops the tmp[j] bounds
		// check from the dot product (check_bce).
		row := mass[i*n : i*n+n][:len(tmp)]
		acc := 0.0
		for j, m := range row {
			acc += m * tmp[j]
		}
		v[i*stride] = acc
	}
}

// loadSource writes the volumetric right-hand side of (angle, elem,
// group) into b (nN entries): the mass-weighted total source PrepareInner
// stored, plus — by linearity of M — the P1 term 3 Omega . (M q1) and the
// BDF1 term vdelt_g (M psi_prev). No task multiplies by the mass matrix.
// Every task kernel builds its RHS from this one expression (the batched
// kernel through loadSourceLanes, every group at once), which is what
// keeps them bitwise equal.
func (s *Solver) loadSource(b []float64, a, e, g int) {
	ns := s.stride
	src := s.srcIdx(e, g)
	b = b[:s.nN]
	for i := range b {
		b[i] = s.mq[src+i*ns]
	}
	if s.cfg.ScatOrder >= 1 {
		om := s.cfg.Quad.Angles[a].Omega
		m1x, m1y, m1z := s.mq1[0][src:], s.mq1[1][src:], s.mq1[2][src:]
		for i := range b {
			b[i] += 3 * (om[0]*m1x[i*ns] + om[1]*m1y[i*ns] + om[2]*m1z[i*ns])
		}
	}
	if s.mPrev != nil {
		// BDF1: the previous step's angular flux enters the source with
		// the time-absorption coefficient (SNAP's vdelt * psi_prev).
		vd := s.vdelt(g)
		prev := s.mPrev[s.psiIdx(a, e, g):]
		for i := range b {
			b[i] += vd * prev[i*ns]
		}
	}
}

// loadSourceLanes is loadSource for every group of (angle, elem) at once
// under LayoutLanes: b is the ordinate's column stripe of the task's
// block, node-major with the groups fastest and its rows ldb apart (ldb =
// nG for a single ordinate, whose block is one contiguous copy of mq's;
// s*nG for an ordinate of a set of s, every one of which reads the same
// block of mq).
func (s *Solver) loadSourceLanes(b []float64, a, e, ldb int) {
	n, nG := s.nN, s.nG
	base := s.srcIdx(e, 0)
	mq := s.mq[base : base+n*nG]
	switch {
	case ldb == nG:
		copy(b[:n*nG], mq)
	case nG == 1:
		for i, v := range mq {
			b[i*ldb] = v
		}
	default:
		for i := 0; i < n; i++ {
			gatherRun(b[i*ldb:i*ldb+nG], mq[i*nG:i*nG+nG])
		}
	}
	if s.cfg.ScatOrder >= 1 {
		om := s.cfg.Quad.Angles[a].Omega
		m1x := s.mq1[0][base : base+n*nG]
		m1y := s.mq1[1][base : base+n*nG]
		m1z := s.mq1[2][base : base+n*nG]
		for i := 0; i < n; i++ {
			for g := 0; g < nG; g++ {
				k := i*nG + g
				b[i*ldb+g] += 3 * (om[0]*m1x[k] + om[1]*m1y[k] + om[2]*m1z[k])
			}
		}
	}
	if s.mPrev != nil {
		prev := s.mPrev[s.psiIdx(a, e, 0):][:n*nG]
		for g := 0; g < nG; g++ {
			vd := s.vdelt(g)
			for i := 0; i < n; i++ {
				b[i*ldb+g] += vd * prev[i*nG+g]
			}
		}
	}
}

// assembleMatrix builds the local matrix of (angle, elem, group) into dst
// (length nN*nN): sigma_t M - sum_d Omega_d G^d plus the outflow face
// terms.
func (s *Solver) assembleMatrix(a, e, g int, dst []float64) {
	em := s.em[e]
	om := s.cfg.Quad.Angles[a].Omega
	sigt := s.sigtEff[s.cfg.Mesh.Elems[e].Material][g]
	mass := em.Mass
	gx, gy, gz := em.Grad[0], em.Grad[1], em.Grad[2]
	for idx := range dst {
		dst[idx] = sigt*mass[idx] - om[0]*gx[idx] - om[1]*gy[idx] - om[2]*gz[idx]
	}
	s.addOutflowFaces(a, e, dst)
}

// assembleBase builds the group-independent part of the local matrices of
// (angle, elem) — minus Omega·G plus the outflow face terms — so the
// engine's per-group matrix is just base + sigma_t,g M.
func (s *Solver) assembleBase(a, e int, dst []float64) {
	em := s.em[e]
	om := s.cfg.Quad.Angles[a].Omega
	la.Fuse3(dst, em.Grad[0], em.Grad[1], em.Grad[2], -om[0], -om[1], -om[2])
	s.addOutflowFaces(a, e, dst)
}

// addOutflowFaces accumulates the outflow surface terms of (angle, elem)
// into the local matrix.
func (s *Solver) addOutflowFaces(a, e int, dst []float64) {
	om := s.cfg.Quad.Angles[a].Omega
	em := s.em[e]
	n := s.nN
	nf := s.re.NF
	t := s.topos[a]
	for f := 0; f < fem.NumFaces; f++ {
		if t.IsInflow(e, f) {
			continue
		}
		fn := s.re.FaceNodes[f][:nf]
		fx, fy, fz := em.Face[f][0], em.Face[f][1], em.Face[f][2]
		for k, gi := range fn {
			row := dst[gi*n : (gi+1)*n]
			// Length-matched reslices: the prove pass drops the face
			// rows' bounds checks.
			rx := fx[k*nf : k*nf+nf][:len(fn)]
			ry := fy[k*nf : k*nf+nf][:len(fn)]
			rz := fz[k*nf : k*nf+nf][:len(fn)]
			for l, gj := range fn {
				row[gj] += om[0]*rx[l] + om[1]*ry[l] + om[2]*rz[l]
			}
		}
	}
}

// assembleRHS builds b = M q_tot (loadSource) minus the upwind inflow
// terms for (angle, elem, group) into st.ws.B, gathering neighbour (or
// halo) values through st.up.
func (s *Solver) assembleRHS(st *workerState, a, e, g int) {
	em := s.em[e]
	om := s.cfg.Quad.Angles[a].Omega
	nf := s.re.NF
	b := st.ws.B
	s.loadSource(b, a, e, g)
	t := s.topos[a]
	for f := 0; f < fem.NumFaces; f++ {
		if !t.IsInflow(e, f) {
			continue
		}
		fc := s.cfg.Mesh.Elems[e].Faces[f]
		var up []float64
		if fc.Neighbor >= 0 && t.Lagged != nil && t.IsLagged(e, f) {
			// Lagged (cycle-broken) coupling: the previous sweep's
			// neighbour values, already in our face-node ordering in the
			// lag store, which no task writes, so the read is
			// order-independent.
			slot := s.lagSlot(t, a, e, f)
			up = st.up
			for l := 0; l < nf; l++ {
				up[l] = slot[l*s.nG+g]
			}
		} else if fc.Neighbor >= 0 {
			// Gather the neighbour's coincident nodal values via the
			// conforming-face permutation, reordered into our face-node
			// ordering.
			perm := s.conn.Perm[e][f]
			nbNodes := s.re.FaceNodes[fc.NeighborFace]
			base := s.psiIdx(a, fc.Neighbor, g)
			up = st.up
			for l := 0; l < nf; l++ {
				up[l] = s.psi[base+nbNodes[perm[l]]*s.stride]
			}
		} else if s.ext != nil {
			if fi := s.ext.faceIdx[e*fem.NumFaces+f]; fi >= 0 {
				// External inflow: the slot was filled before the sweep
				// (block Jacobi) or before this task became ready.
				off := ((int(fi)*s.nA+a)*s.nG + g) * nf
				up = s.ext.data[off : off+nf]
			}
		} else if s.cfg.Reflect[fem.FaceDim(f)] {
			// Reflective face: the mirror ordinate's flux on the same
			// face nodes of this element (see Config.Reflect).
			base := s.psiIdx(s.cfg.Quad.MirrorAngle(a, fem.FaceDim(f)), e, g)
			up = st.up
			for k, node := range s.re.FaceNodes[f] {
				up[k] = s.psi[base+node*s.stride]
			}
		}
		if up == nil {
			continue // vacuum
		}
		fn := s.re.FaceNodes[f]
		fx, fy, fz := em.Face[f][0], em.Face[f][1], em.Face[f][2]
		for k, gi := range fn {
			fr := k * nf
			acc := 0.0
			for l := 0; l < nf; l++ {
				acc += (om[0]*fx[fr+l] + om[1]*fy[fr+l] + om[2]*fz[fr+l]) * up[l]
			}
			// Inflow faces have Omega . n < 0, so subtracting the surface
			// term adds the upwind in-flow to the right-hand side.
			b[gi] -= acc
		}
	}
}

// solveLocal runs the configured dense solver on the system prepared in
// st.ws (under PreAssembled, the factor store's width-1 lane solve: the
// right-hand side gathered through the entry's offsets, then the
// triangular solves), leaving the solution in st.ws.X, and charges the
// time to the worker's solve accumulator.
func (s *Solver) solveLocal(st *workerState, a, e, g int) error {
	var t1 time.Time
	if s.cfg.Instrument {
		t1 = time.Now()
	}
	x := st.ws.X
	switch {
	case s.cfg.PreAssembled:
		// The offsets index a lane-major block of nG groups, q*nG for
		// row q; B holds this group's rows alone.
		lu, off := s.fc.factor(s, a, e, g)
		for i, o := range off {
			x[i] = st.ws.B[int(o)/s.nG]
		}
		la.TriSolveLanes(lu, x, s.nN, 1, 1)
	case s.cfg.Solver == SolverGE:
		if err := la.SolveGE(st.ws.A, st.ws.B, x); err != nil {
			return fmt.Errorf("core: angle %d elem %d group %d: %w", a, e, g, err)
		}
	default:
		if err := la.SolveDGESV(st.ws.A, st.ws.B, st.ws.Piv); err != nil {
			return fmt.Errorf("core: angle %d elem %d group %d: %w", a, e, g, err)
		}
		copy(x, st.ws.B)
	}
	if s.cfg.Instrument {
		st.solveNS += time.Since(t1).Nanoseconds()
	}
	return nil
}

// solveOne assembles and solves one (angle, elem, group) system, stores
// the angular flux and accumulates the scalar flux (the legacy executors'
// unit of work; the engine uses solveElem).
func (s *Solver) solveOne(st *workerState, a, e, g int) error {
	instr := s.cfg.Instrument
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	if !s.cfg.PreAssembled {
		s.assembleMatrix(a, e, g, st.ws.A.Data)
	}
	s.assembleRHS(st, a, e, g)
	if instr {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
	if err := s.solveLocal(st, a, e, g); err != nil {
		return err
	}

	// Store the angular flux (needed by downwind neighbours and the next
	// iteration) and fold the quadrature weight into the scalar flux and,
	// for P1 scattering, the current.
	x := st.ws.X
	copy(s.psi[s.psiIdx(a, e, g):s.psiIdx(a, e, g)+s.nN], x)
	w := s.cfg.Quad.Angles[a].Weight
	om := s.cfg.Quad.Angles[a].Omega
	fluxBase := s.phiIdx(e, g)
	phi := s.phi[fluxBase : fluxBase+s.nN]
	for i, v := range x {
		phi[i] += w * v
	}
	if s.cfg.ScatOrder >= 1 {
		for d := 0; d < 3; d++ {
			wd := w * om[d]
			cd := s.cur[d][fluxBase : fluxBase+s.nN]
			for i, v := range x {
				cd[i] += wd * v
			}
		}
	}
	return nil
}

// solveElem is the engine's unit of work: every (ordinate, group) lane
// of one (angle set, elem) task. The default batched kernel (kernel.go)
// runs the set's lanes together — up to four groups of one ordinate, or
// up to four (ordinate, group) pairs of a set, per lane panel; the scalar
// kernel below is the pre-batching baseline, kept for A/B benchmarking
// and as the bitwise-parity reference, and runs the set's ordinates one
// after another in ordinate order. Config.Kernel alone chooses;
// PreAssembled is a fill policy of the factor store either kernel reads.
// The scalar flux is NOT accumulated here — the engine reduces it from
// psi once per sweep, in deterministic ordinate order (see
// reduceFluxFromPsi).
func (s *Solver) solveElem(st *workerState, as angleSet, e int) error {
	if s.cfg.Kernel == KernelBatched {
		return s.solveElemBatched(st, int(as.a0), e)
	}
	var firstErr error
	for a := int(as.a0); a < int(as.a0+as.s); a++ {
		if err := s.solveElemScalar(st, a, e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// solveElemScalar assembles and solves each group of one (angle, elem)
// task independently. The group-independent matrix part is assembled once
// and the per-group matrix formed by adding sigma_t M onto it. On a
// solve failure the remaining groups still run (matching the legacy
// executors) and the first error is returned.
func (s *Solver) solveElemScalar(st *workerState, a, e int) error {
	instr := s.cfg.Instrument
	pre := s.cfg.PreAssembled // solveLocal reads the stored factor: no matrix to form
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	base := st.base[:s.nN*s.nN]
	if !pre {
		s.assembleBase(a, e, base)
	}
	mass := s.em[e].Mass
	sigt := s.sigtEff[s.cfg.Mesh.Elems[e].Material]
	var firstErr error
	for g := 0; g < s.nG; g++ {
		if instr && g > 0 {
			t0 = time.Now()
		}
		if !pre {
			la.AddScaledTo(st.ws.A.Data, base, mass, sigt[g])
		}
		s.assembleRHS(st, a, e, g)
		if instr {
			st.asmNS += time.Since(t0).Nanoseconds()
		}
		if err := s.solveLocal(st, a, e, g); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pb := s.psiIdx(a, e, g)
		for i, v := range st.ws.X[:s.nN] {
			s.psi[pb+i*s.stride] = v
		}
	}
	return firstErr
}

// SweepAllAngles performs one full transport sweep over all ordinates.
// Engine-backed schemes run one counter-driven task graph covering all
// eight octants (cyclic and reflective problems included: lagged couplings
// read the lag store, and each reflective mirror read is one edge of the
// graph) and reduce the scalar flux from psi afterwards; legacy schemes
// follow each ordinate's bucketed schedule, octant by octant, under the
// scheme's threading choice. On a solver with External faces the sweep
// reads every inflow slot as the caller left it (block Jacobi: the slots
// hold the previous iterate's halo), under every scheme. The scalar flux
// accumulates the weighted angular fluxes; callers zero it first via
// PrepareInner. The lag store is refilled from psi last, for the next
// sweep.
func (s *Solver) SweepAllAngles() error {
	if err := s.fc.ensureMapped(s); err != nil {
		return err
	}
	if s.cfg.Scheme.EngineBacked() {
		s.ensureEngine().runSweep()
		s.reduceFluxFromPsi()
	} else {
		for o := 0; o < 8; o++ {
			for m := 0; m < s.cfg.Quad.PerOctant; m++ {
				s.sweepAngle(s.cfg.Quad.AngleIndex(o, m))
			}
		}
	}
	s.refillLagStore()
	s.flushPhaseTimes()
	return s.pool.takeErr()
}

// flushPhaseTimes folds the workers' local timer accumulators into the
// solver totals PhaseTimes reports; the solver must be quiescent.
func (s *Solver) flushPhaseTimes() {
	for _, st := range s.workers {
		s.asmNS += st.asmNS
		s.solveNS += st.solveNS
		st.asmNS, st.solveNS = 0, 0
	}
}

// sweepAngle processes one ordinate bucket by bucket under the scheme's
// threading choice: every bucket is one round of the worker pool, as it
// was one `parallel for` region of the paper's persistent OpenMP team.
func (s *Solver) sweepAngle(a int) {
	t := s.topos[a]
	p := s.pool
	for _, bucket := range t.Sched.Buckets {
		nb := len(bucket)
		switch s.cfg.Scheme {
		case SchemeAEg, SchemeAgE:
			// Thread the elements of the bucket; groups sequential inside.
			p.each(nb, func(w, bi int) {
				st := s.workers[w]
				e := bucket[bi]
				for g := 0; g < s.nG; g++ {
					p.record(s.solveOne(st, a, e, g))
				}
			})
		case SchemeAEG:
			// Collapse (element, group), group fastest (the inner loop),
			// matching OpenMP collapse(2) lexicographic ordering.
			p.each(nb*s.nG, func(w, idx int) {
				st := s.workers[w]
				e := bucket[idx/s.nG]
				g := idx % s.nG
				p.record(s.solveOne(st, a, e, g))
			})
		case SchemeAGE:
			// Collapse (group, element), element fastest.
			p.each(s.nG*nb, func(w, idx int) {
				st := s.workers[w]
				g := idx / nb
				e := bucket[idx%nb]
				p.record(s.solveOne(st, a, e, g))
			})
		case SchemeAeG, SchemeAGe:
			// Thread the groups; each worker walks the whole bucket.
			p.each(s.nG, func(w, g int) {
				st := s.workers[w]
				for _, e := range bucket {
					p.record(s.solveOne(st, a, e, g))
				}
			})
		default:
			p.record(fmt.Errorf("core: scheme %v has no bucket executor", s.cfg.Scheme))
			return
		}
	}
}
