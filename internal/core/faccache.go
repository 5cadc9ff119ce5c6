package core

import (
	"sync/atomic"

	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// Shared factor cache for the batched task kernel. On the default ramped
// library every sigma_t run has length one, so every (ordinate, element)
// task still pays one O(n^3) factorisation per group. But the per-group
// local matrix base + sigma_t,g M is a pure function of (ordinate,
// element-geometry class, outflow-face set, material): on meshes with
// repeated element geometries — any untwisted box grid — thousands of
// tasks share a handful of distinct matrices. The cache factors each
// distinct matrix once (LU, keyed on (ordinate, geometry class,
// material)) and every matching task runs only the O(n^2) triangular
// solves, skipping its base assembly and per-run matrix formation
// entirely.
//
// Bitwise contract: the cached path must reproduce the uncached batched
// kernel bit for bit (TestAccelFactorCacheBitwise). Two elements of one
// geometry class have bitwise-identical element matrices (build.GeomClass
// guarantees it), so the builder's assembled matrix is the matrix every
// reader would have assembled; SolverGE's elimination (SolveGEMulti) and
// Factor are the same loop in la (eliminate) with and without the
// right-hand sides carried along, and SolveFactoredMulti's forward solve
// subtracts the stored multipliers from each right-hand side in the order
// that loop does, so the split changes nothing. Tangent faces are the one
// hazard — the lower-element-index tie-break can classify them
// differently within a class — so each entry records the builder's
// outflow-face mask and a reader with a different mask falls back to the
// private path.
//
// Concurrency: each entry carries an atomic state (empty, building,
// ready, failed). The first task to claim an empty entry assembles and
// factors it, then publishes with a release store; readers acquire-load
// the state, so a ready entry's factors are safely visible. Tasks that
// catch an entry mid-build just run the private path — nobody blocks.
// All entry storage is allocated eagerly at New, keeping the steady-state
// task body allocation-free (TestSweepTaskAllocFree).

// factorCacheLimit caps the cache's predicted resident size; a problem
// over it runs uncached, all or nothing. Geometry classes need not repeat
// for the cache to pay: on a twisted mesh every element is its own class,
// yet an order-1 problem still fits (the benchmark's solve_lo — 8^3, 32
// ordinates, 8 groups, n = 8 — predicts 75 MB and runs cached, each task
// reusing across inners the factors it built in the first), while an
// order-3 one does not (solve_ho predicts 136 MB and refactors every
// task every inner).
const factorCacheLimit = 128 << 20

const (
	facEmpty uint32 = iota
	facBuilding
	facReady
	facFailed
)

// facEntry holds the factored per-run matrices of one (ordinate,
// geometry class, material) key.
type facEntry struct {
	state atomic.Uint32
	mask  uint8 // outflow-face set baked into the factors
	mats  []la.Matrix
	pivs  [][]int
}

type factorCache struct {
	class   []int32 // per-element geometry class (artifact view)
	slotOf  []int32 // class*nMat+mat -> slot index, -1 if the pair never occurs
	nMat    int
	nSlots  int
	entries []facEntry // indexed angle*nSlots + slot
}

// newFactorCache sizes and allocates the cache, or returns nil when
// caching is off: non-batched kernels and pre-assembled mode never run
// the batched task body, Config.noFactorCache is the A/B test knob, and
// the byte budget rejects problems whose factors would not fit
// (factorCacheLimit).
func newFactorCache(s *Solver) *factorCache {
	cfg := &s.cfg
	if cfg.Kernel != KernelBatched || cfg.PreAssembled || cfg.noFactorCache {
		return nil
	}
	if s.art.GeomClass == nil || s.art.GeomClasses == 0 {
		return nil
	}
	nMat := len(s.sigtRuns)
	nClass := s.art.GeomClasses
	slotOf := make([]int32, nClass*nMat)
	for i := range slotOf {
		slotOf[i] = -1
	}
	var slotMat []int32
	runsTotal := 0
	for e := 0; e < s.nE; e++ {
		mat := cfg.Mesh.Elems[e].Material
		key := int(s.art.GeomClass[e])*nMat + mat
		if slotOf[key] < 0 {
			slotOf[key] = int32(len(slotMat))
			slotMat = append(slotMat, int32(mat))
			runsTotal += len(s.sigtRuns[mat])
		}
	}
	n := s.nN
	perRun := int64(n*n)*8 + int64(n)*8
	if int64(s.nA)*int64(runsTotal)*perRun > factorCacheLimit {
		return nil
	}
	nSlots := len(slotMat)
	c := &factorCache{
		class:   s.art.GeomClass,
		slotOf:  slotOf,
		nMat:    nMat,
		nSlots:  nSlots,
		entries: make([]facEntry, s.nA*nSlots),
	}
	slab := make([]float64, s.nA*runsTotal*n*n)
	pivSlab := make([]int, s.nA*runsTotal*n)
	idx := 0
	for a := 0; a < s.nA; a++ {
		for sl := 0; sl < nSlots; sl++ {
			nr := len(s.sigtRuns[slotMat[sl]])
			ent := &c.entries[a*nSlots+sl]
			ent.mats = make([]la.Matrix, nr)
			ent.pivs = make([][]int, nr)
			for r := 0; r < nr; r++ {
				ent.mats[r] = la.Matrix{N: n, Data: slab[idx*n*n : (idx+1)*n*n]}
				ent.pivs[r] = pivSlab[idx*n : (idx+1)*n]
				idx++
			}
		}
	}
	return c
}

// outflowMask packs the task's outflow-face classification into the
// per-entry compatibility key.
func (s *Solver) outflowMask(a, e int) uint8 {
	t := s.topos[a]
	var m uint8
	for f := 0; f < fem.NumFaces; f++ {
		if !t.IsInflow(e, f) {
			m |= 1 << f
		}
	}
	return m
}

// acquire returns the ready factored entry for (angle, elem, material),
// building it first if this task is the one that catches it empty. A nil
// return means the task must run the private assemble-and-solve path:
// the entry is mid-build by another task, its factorisation failed, or
// its outflow mask does not match this element's.
func (c *factorCache) acquire(s *Solver, st *workerState, a, e, mat int) *facEntry {
	ent := &c.entries[a*c.nSlots+int(c.slotOf[int(c.class[e])*c.nMat+mat])]
	switch ent.state.Load() {
	case facReady:
		if ent.mask == s.outflowMask(a, e) {
			return ent
		}
		return nil
	case facEmpty:
		if !ent.state.CompareAndSwap(facEmpty, facBuilding) {
			return nil
		}
		s.assembleBase(a, e, st.base)
		mass := s.em[e].Mass
		sigt := s.sigtEff[mat]
		blocked := s.cfg.Solver != SolverGE
		for r, run := range s.sigtRuns[mat] {
			m := &ent.mats[r]
			la.AddScaledTo(m.Data, st.base, mass, sigt[run.g0])
			var err error
			if blocked {
				// SolverDGESV's uncached path factors with FactorBlocked;
				// SolverGE's runs SolveGEMulti, which is Factor's own
				// elimination loop with the right-hand sides carried.
				err = la.FactorBlocked(m, ent.pivs[r], la.DefaultBlockSize)
			} else {
				err = la.Factor(m, ent.pivs[r])
			}
			if err != nil {
				// Poison the entry; the private path will surface the
				// same singularity with the kernel's error context.
				ent.state.Store(facFailed)
				return nil
			}
		}
		ent.mask = s.outflowMask(a, e)
		ent.state.Store(facReady)
		return ent
	default:
		return nil
	}
}
