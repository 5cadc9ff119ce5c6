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
// Layout: one float slab and one int slab, n*n floats and n ints per
// sigma_t run, each entry a contiguous stretch of both. A material's runs
// are cut into panels by the solver's panel plan (Solver.plan,
// panelPlan): stretches of single-group runs into widths of 4, then 2,
// then 1; a multi-group run, and every run under the eager policy, is a
// width-1 panel. A width-1 panel holds the row-major LU factor and LAPACK
// pivots, solved in place by la.SolveFactoredMulti. A width-w panel holds
// its w factors lane-interleaved, entry (i, j) of lane l at
// (i*n+j)*w + l, and each lane's composed row permutation: the fill forms
// the w matrices in that layout in the entry itself and factors them
// there with one la.FactorLanes call (factorPanel, the routine the
// uncached task uses too), and the task gathers each group's right-hand
// side through its lane's permutation, solves the w systems in one
// la.TriSolveLanes call (one AVX2 vector per entry) and scatters the
// solutions back (solveLanes). The bytes are those of one factor per run,
// so the size prediction does not know the plan.
//
// Bitwise contract: the cached path must reproduce the uncached batched
// kernel bit for bit (TestAccelFactorCacheBitwise,
// TestFactorCacheWidthPlans). Two elements of one
// geometry class have bitwise-identical element matrices (build.GeomClass
// guarantees it), so the builder's assembled matrix is the matrix every
// reader would have assembled; SolverGE's elimination (SolveGEMulti) and
// Factor are the same loop in la (eliminate) with and without the
// right-hand sides carried along, and SolveFactoredMulti's forward solve
// subtracts the stored multipliers from each right-hand side in the order
// that loop does, so the split changes nothing. A lane panel changes
// nothing either: FactorLanes runs Factor's operation sequence in every
// lane, the gather moves values without arithmetic into the order
// SolveFactored's swaps leave them in, and TriSolveLanes runs
// SolveFactored's operation sequence in every lane. Tangent faces are the one
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
// geometry class, material) key: n*n floats and n ints per sigma_t run,
// run r's at r*n*n and r*n, laid out by the material's panel plan.
type facEntry struct {
	state atomic.Uint32
	mask  uint8     // outflow-face set baked into the factors
	lu    []float64 // width-1 panel: row-major LU; width w: lane-interleaved, (i*n+j)*w + lane
	piv   []int     // width-1 panel: the LAPACK pivots; width w: each lane's composed row permutation
}

// facPanel is one step of a material's panel plan: runs [r0, r0+w) of
// its sigtRuns, factored as one la.FactorLanes call and solved as one
// la.TriSolveLanes call when w > 1.
type facPanel struct {
	r0, w int32
}

type factorCache struct {
	class   []int32 // per-element class: the artifact's geometry classes, or the identity when eager
	slotOf  []int32 // class*nMat+mat -> slot index, -1 if the pair never occurs
	nMat    int
	nSlots  int
	n       int        // nodes per element: the order of every stored system
	entries []facEntry // indexed angle*nSlots + slot
}

// panelPlan groups a material's sigma_t runs into panels. A lane holds
// one right-hand side, so only single-group runs share a panel: each maximal stretch of
// them is cut greedily into widths of 4, then 2, then 1 (one to eight
// groups: 1, 2, 2+1, 4, 4+1, ..., 4+4). A run of several groups — one
// factor serving k right-hand sides — is a width-1 panel of its own, and
// so is every run when lanes is false (the eager policy).
func panelPlan(runs []sigtRun, lanes bool) []facPanel {
	plan := make([]facPanel, 0, len(runs))
	for r := 0; r < len(runs); {
		w := 1
		if lanes {
			single := 0
			for single < 4 && r+single < len(runs) && runs[r+single].k == 1 {
				single++
			}
			switch {
			case single == 4:
				w = 4
			case single >= 2:
				w = 2
			}
		}
		plan = append(plan, facPanel{r0: int32(r), w: int32(w)})
		r += w
	}
	return plan
}

// factorPanel forms the w matrices of lane panel p — base + sigma_t,g M
// for each of its runs, st.base holding the task's base — lane-interleaved
// into lu in one la.AddScaledToLanes pass, then factors them in place with
// one la.FactorLanes call, each lane's composed row permutation into perm.
// Both the uncached task and the store's fill go through it. With instr
// the formation is charged to st's assembly timer and the factorisation
// to its solve timer, as the per-run path charges them.
func (s *Solver) factorPanel(st *workerState, lu []float64, perm []int, e, mat int, p facPanel, instr bool) error {
	runs := s.sigtRuns[mat]
	sigt := s.sigtEff[mat]
	r0, w := int(p.r0), int(p.w)
	var ws [4]float64
	for l := range ws[:w] {
		ws[l] = sigt[runs[r0+l].g0]
	}
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	la.AddScaledToLanes(lu, st.base, s.em[e].Mass, ws[:w])
	if instr {
		t1 := time.Now()
		st.asmNS += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}
	err := la.FactorLanes(lu, perm, s.nN, w)
	if instr {
		st.solveNS += time.Since(t0).Nanoseconds()
	}
	return err
}

// solveLanes solves the w single-group systems of a factored lane panel
// (lu and perm as la.FactorLanes leaves them) for the group-major
// right-hand sides b, in place: each group's right-hand side is gathered
// through its lane's row permutation into the lane scratch x, the w
// systems go through one la.TriSolveLanes call and the solutions are
// scattered back.
func solveLanes(lu []float64, perm []int, b, x []float64, n, w int) {
	x = x[: w*n : w*n]
	for l := 0; l < w; l++ {
		bl := b[l*n : l*n+n]
		for i, q := range perm[l*n : l*n+n] {
			x[i*w+l] = bl[q]
		}
	}
	la.TriSolveLanes(lu, x, n, w)
	for l := 0; l < w; l++ {
		bl := b[l*n : l*n+n]
		for i := range bl {
			bl[i] = x[i*w+l]
		}
	}
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
		n:       n,
		entries: make([]facEntry, s.nA*nSlots),
	}
	lu := make([]float64, s.nA*runsTotal*n*n)
	piv := make([]int, s.nA*runsTotal*n)
	idx := 0
	for a := 0; a < s.nA; a++ {
		for sl := 0; sl < nSlots; sl++ {
			nr := len(s.sigtRuns[slotMat[sl]])
			ent := &c.entries[a*nSlots+sl]
			ent.lu = lu[idx*n*n : (idx+nr)*n*n : (idx+nr)*n*n]
			ent.piv = piv[idx*n : (idx+nr)*n : (idx+nr)*n]
			idx += nr
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

// run returns the row-major LU factor and pivots of run r of ent, which
// the plan must hold in a width-1 panel.
func (c *factorCache) run(ent *facEntry, r int) (la.Matrix, []int) {
	n := c.n
	return la.Matrix{N: n, Data: ent.lu[r*n*n : (r+1)*n*n]}, ent.piv[r*n : (r+1)*n]
}

// factor returns the stored LU factor of (angle, elem, group). Only the
// eager policy may call it: there every entry is ready once New returns,
// every element owns its entry, so no mask can mismatch, and every run is
// a width-1 panel.
func (c *factorCache) factor(s *Solver, a, e, g int) (la.Matrix, []int) {
	mat := s.cfg.Mesh.Elems[e].Material
	runs := s.sigtRuns[mat]
	r := 0
	for int(runs[r].g0+runs[r].k) <= g {
		r++
	}
	return c.run(c.entry(a, e, mat), r)
}

// solve overwrites rhs, the task's group-major right-hand sides, with
// the solutions against the ready entry ent, panel by panel: a width-1
// panel through la.SolveFactoredMulti in place, a wider one through
// solveLanes.
func (c *factorCache) solve(s *Solver, st *workerState, ent *facEntry, mat int, rhs []float64) {
	n := c.n
	runs := s.sigtRuns[mat]
	for _, p := range s.plan[mat] {
		r0, w := int(p.r0), int(p.w)
		g0 := int(runs[r0].g0)
		if w == 1 {
			k := int(runs[r0].k)
			m, piv := c.run(ent, r0)
			la.SolveFactoredMulti(&m, piv, rhs[g0*n:(g0+k)*n], k)
			continue
		}
		solveLanes(ent.lu[r0*n*n:(r0+w)*n*n], ent.piv[r0*n:(r0+w)*n], rhs[g0*n:(g0+w)*n], st.lanes, n, w)
	}
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
// Every panel is factored in place in the entry: a width-1 panel by
// la.Factor or la.FactorBlocked, a wider one by factorPanel, which
// leaves the lanes interleaved and each lane's composed row permutation
// where the solve gathers through it. The whole fill — base assembly
// included — is charged to the worker's solve timer: it is the
// factorisation the cached sweeps no longer pay, and counting it as
// assembly would skew the two shares the trace reads against each other.
func (c *factorCache) fill(s *Solver, st *workerState, ent *facEntry, a, e, mat int) error {
	if s.cfg.Instrument {
		defer func(t0 time.Time) { st.solveNS += time.Since(t0).Nanoseconds() }(time.Now())
	}
	s.assembleBase(a, e, st.base)
	mass := s.em[e].Mass
	sigt := s.sigtEff[mat]
	runs := s.sigtRuns[mat]
	blocked := s.cfg.Solver != SolverGE
	n := c.n
	for _, p := range s.plan[mat] {
		r0, w := int(p.r0), int(p.w)
		g0 := int(runs[r0].g0)
		var err error
		if w > 1 {
			err = s.factorPanel(st, ent.lu[r0*n*n:(r0+w)*n*n], ent.piv[r0*n:(r0+w)*n], e, mat, p, false)
		} else {
			m, piv := c.run(ent, r0)
			la.AddScaledTo(m.Data, st.base, mass, sigt[g0])
			if blocked {
				// SolverDGESV's uncached path factors with FactorBlocked;
				// SolverGE's runs SolveGEMulti, which is Factor's own
				// elimination loop with the right-hand sides carried.
				err = la.FactorBlocked(&m, piv, la.DefaultBlockSize)
			} else {
				err = la.Factor(&m, piv)
			}
		}
		if err != nil {
			ent.state.Store(facFailed)
			return fmt.Errorf("core: factorising angle %d elem %d group %d: %w", a, e, g0, err)
		}
	}
	ent.mask = s.outflowMask(a, e)
	ent.state.Store(facReady)
	return nil
}
