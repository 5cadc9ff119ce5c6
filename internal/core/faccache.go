package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"unsnap/internal/fem"
	"unsnap/internal/la"
)

// The factor store: the one place the solver keeps a local operator
// resident. The per-group local matrix base + sigma_t,g M is a pure
// function of (ordinate, element geometry, outflow-face set, material,
// sigma_t), so it is factored (LU) once per distinct key and sigma_t run
// and every task that matches runs only the O(n^2) triangular solves,
// skipping its base assembly, per-run matrix formation and O(n^3)
// factorisation. Nothing else derived from an ordinate is stored
// anywhere: face blocks are fused per task (subInflowPanel) and the
// build artifact holds topology and element matrices only.
//
// Two fill policies share the layout, the lookup and the fill routine:
//
//   - Lazy (the default, engine + batched kernel): keyed on (ordinate,
//     geometry class, material), so on meshes with repeated element
//     geometries — any untwisted box grid — thousands of tasks share a
//     handful of factors. The first task to reach an empty entry fills
//     it; the store exists only when its predicted size fits
//     factorCacheLimit, all or nothing.
//   - Eager (Config.PreAssembled, section IV-B1's pre-assembled,
//     pre-factorised matrices): every element is its own class, every
//     (ordinate, element, sigma_t run) entry is filled in parallel at New,
//     and the budget is the 16 GiB refusal instead. The engine then runs
//     the ordinary cached batched path; the bucket schemes, which have no
//     batched body, look their per-group factor up here (factor).
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
// The eager fill writes disjoint entries from the pool's workers, each
// over its own workerState scratch, and is joined before New returns.
// All entry storage is allocated at New, keeping the steady-state task
// body allocation-free (TestSweepTaskAllocFree).

// factorCacheLimit caps the lazy store's predicted resident size; a
// problem over it runs uncached, all or nothing. Geometry classes need
// not repeat for it to pay: on a twisted mesh every element is its own class,
// yet an order-1 problem still fits (the benchmark's solve_lo — 8^3, 32
// ordinates, 8 groups, n = 8 — predicts 75 MB and runs cached, each task
// reusing across inners the factors it built in the first), while an
// order-3 one does not (solve_ho predicts 136 MB and refactors every
// task every inner). preAssembledLimit is the eager policy's refusal: the
// paper prices those matrices at a factor of numNodes over the (already
// large) angular flux array.
const (
	factorCacheLimit  = 128 << 20
	preAssembledLimit = 16 << 30
)

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
	class   []int32 // per-element class: the artifact's geometry classes, or the identity when eager
	slotOf  []int32 // class*nMat+mat -> slot index, -1 if the pair never occurs
	nMat    int
	nSlots  int
	entries []facEntry // indexed angle*nSlots + slot
}

// newFactorCache sizes and allocates the store and, under
// Config.PreAssembled, fills it. It returns nil when the solver keeps no
// factors: the lazy policy serves only the engine's batched task body,
// Config.noFactorCache is the A/B test knob, and the byte budget rejects
// problems whose factors would not fit (factorCacheLimit). The eager
// policy has no such gates; it fails instead, on a singular matrix or a
// demand over preAssembledLimit.
func newFactorCache(s *Solver) (*factorCache, error) {
	cfg := &s.cfg
	pre := cfg.PreAssembled
	if !pre && (!cfg.Scheme.EngineBacked() || cfg.Kernel != KernelBatched || cfg.noFactorCache) {
		return nil, nil
	}
	class, nClass := s.art.GeomClass, s.art.GeomClasses
	if pre {
		class, nClass = make([]int32, s.nE), s.nE
		for e := range class {
			class[e] = int32(e)
		}
	} else if class == nil || nClass == 0 {
		return nil, nil
	}
	nMat := len(s.sigtRuns)
	slotOf := make([]int32, nClass*nMat)
	for i := range slotOf {
		slotOf[i] = -1
	}
	var slotMat []int32
	runsTotal := 0
	for e := 0; e < s.nE; e++ {
		mat := cfg.Mesh.Elems[e].Material
		key := int(class[e])*nMat + mat
		if slotOf[key] < 0 {
			slotOf[key] = int32(len(slotMat))
			slotMat = append(slotMat, int32(mat))
			runsTotal += len(s.sigtRuns[mat])
		}
	}
	n := s.nN
	perRun := int64(n*n)*8 + int64(n)*8
	bytes := int64(s.nA) * int64(runsTotal) * perRun
	if pre && bytes > preAssembledLimit {
		return nil, fmt.Errorf("core: pre-assembled matrices would need %d GiB; refuse above %d GiB", bytes>>30, preAssembledLimit>>30)
	}
	if !pre && bytes > factorCacheLimit {
		return nil, nil
	}
	nSlots := len(slotMat)
	c := &factorCache{
		class:   class,
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
	if pre {
		if err := c.fillAll(s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// fillAll is the eager policy: every (ordinate, element) entry, in
// parallel, each worker over its own scratch. The fill time is flushed
// into the solver's totals here: PhaseTimes must show it before a sweep.
func (c *factorCache) fillAll(s *Solver) error {
	s.pool.each(s.nA*s.nE, func(w, t int) {
		a, e := t/s.nE, t%s.nE
		mat := s.cfg.Mesh.Elems[e].Material
		s.pool.record(c.fill(s, s.workers[w], c.entry(a, e, mat), a, e, mat))
	})
	s.flushPhaseTimes()
	return s.pool.takeErr()
}

// entry returns the store's entry for (angle, elem, material).
func (c *factorCache) entry(a, e, mat int) *facEntry {
	return &c.entries[a*c.nSlots+int(c.slotOf[int(c.class[e])*c.nMat+mat])]
}

// factor returns the stored LU factor of (angle, elem, group). Only the
// eager policy may call it: there every entry is ready once New returns,
// and every element owns its entry, so no mask can mismatch.
func (c *factorCache) factor(s *Solver, a, e, g int) (*la.Matrix, []int) {
	mat := s.cfg.Mesh.Elems[e].Material
	ent := c.entry(a, e, mat)
	runs := s.sigtRuns[mat]
	r := 0
	for int(runs[r].g0+runs[r].k) <= g {
		r++
	}
	return &ent.mats[r], ent.pivs[r]
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
// filling it first if this task is the one that catches it empty. A nil
// return means the task must run the private assemble-and-solve path:
// the entry is mid-build by another task, its factorisation failed, or
// its outflow mask does not match this element's.
func (c *factorCache) acquire(s *Solver, st *workerState, a, e, mat int) *facEntry {
	ent := c.entry(a, e, mat)
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
		// A failed fill poisons the entry; the private path will surface
		// the same singularity with the kernel's error context.
		if c.fill(s, st, ent, a, e, mat) != nil {
			return nil
		}
		return ent
	default:
		return nil
	}
}

// fill assembles and factors every sigma_t run of the entry the caller
// owns (a won CAS, or the eager fill's disjoint index) and publishes it.
// The whole fill — base assembly included — is charged to the worker's
// solve timer: it is the factorisation the cached sweeps no longer pay,
// and counting it as assembly would skew the two shares the trace reads
// against each other.
func (c *factorCache) fill(s *Solver, st *workerState, ent *facEntry, a, e, mat int) error {
	if s.cfg.Instrument {
		defer func(t0 time.Time) { st.solveNS += time.Since(t0).Nanoseconds() }(time.Now())
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
			ent.state.Store(facFailed)
			return fmt.Errorf("core: factorising angle %d elem %d group %d: %w", a, e, run.g0, err)
		}
	}
	ent.mask = s.outflowMask(a, e)
	ent.state.Store(facReady)
	return nil
}
