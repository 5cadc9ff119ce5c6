package core

import (
	"fmt"
	"math/bits"
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
// skipping its base assembly, panel formation and O(n^3) factorisation.
// Every entry also keeps the task's fused inflow face blocks, so its
// tasks form no face block either. Nothing
// else derived from an ordinate is stored anywhere: an uncached task
// fuses its face blocks itself, and the build artifact holds topology
// and element matrices only.
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
// Layout: one float slab and one int32 slab, each entry a contiguous
// stretch of each: n*n floats per sigma_t run, then nf*nf floats per
// inflow face of the entry's outflow mask (the fused blocks, ascending
// face); n int32 gather offsets per run. A material's runs are cut into
// panels by the solver's panel plan (Solver.plan, panelPlan): stretches
// of single-group runs into widths of 4, then 2, then 1; a multi-group
// run, and every run under the eager policy, is a width-1 panel. A
// width-w panel holds its w factors lane-interleaved, entry (i, j) of
// lane l at (i*n+j)*w + l — row-major at w = 1 — and each lane's composed
// row permutation as gather offsets into the task's lane-major
// right-hand sides (laneOffsets): the fill forms the w matrices in that
// layout in the entry itself and factors them there with one
// la.FactorLanes call (factorPanel, the routine the uncached task uses
// too), and the task gathers each group's permuted right-hand side
// straight into its psi block and solves there with la.TriSolveLanes
// (one AVX2 vector per entry at w > 1; solveLanes). The size prediction
// follows the runs and the entries' masks.
//
// Bitwise contract: the cached path must reproduce the uncached batched
// kernel bit for bit (TestAccelFactorCacheBitwise,
// TestFactorCacheWidthPlans). Two elements of one geometry class have
// bitwise-identical element matrices (build.GeomClass guarantees it), so
// the builder's assembled matrix is the matrix every reader would have
// assembled, and the fill and the uncached task run the same routines on
// it (factorPanel, solveLanes): FactorLanes runs Factor's operation
// sequence in every lane, the gather moves values without arithmetic
// into the order SolveFactored's swaps leave them in, and TriSolveLanes
// runs SolveFactored's operation sequence in every lane. A stored face
// block is the la.Fuse3 sum the task forms, over the same (class-shared)
// matrices. Tangent faces are the one hazard — the lower-element-index
// tie-break can classify them differently within a class — so each entry
// keeps the outflow-face mask of its slot's first element, set at New,
// and a task with a different mask neither fills nor reads it: it takes
// the private path.
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
// ordinates, 8 groups, n = 8 — predicts about 78 MB with its face blocks
// and runs cached, each task reusing across inners the factors it built
// in the first), while an order-3 one does not (solve_ho predicts about
// 142 MB and refactors every task every inner). preAssembledLimit is the eager policy's refusal: the
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
// geometry class, material) key, laid out by the material's panel plan:
// n*n floats per sigma_t run, run r's at r*n*n, then the task's fused
// inflow face blocks (blocks); its n gather offsets per run sit in the
// store's off slab from off on, in plan order.
type facEntry struct {
	state atomic.Uint32
	mask  uint8 // outflow-face set of the slot's first element: only a task with this set reads or fills the entry
	off   int32 // start of the entry's gather offsets in factorCache.off
	// lu: each panel's w factors lane-interleaved, (i*n+j)*w + lane; then
	// nf*nf per inflow face of mask, ascending face.
	lu []float64
}

// facPanel is one step of a material's panel plan: runs [r0, r0+w) of
// its sigtRuns, factored as one la.FactorLanes call and solved by
// la.TriSolveLanes, one call per right-hand side of a lane.
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
	off     []int32    // every entry's gather offsets (laneOffsets)
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

// factorPanel forms the w matrices of panel p — base + sigma_t,g M
// for each of its runs, st.base holding the task's base — lane-interleaved
// into lu in one la.AddScaledToLanes pass, then factors them in place with
// one la.FactorLanes call, each lane's composed row permutation into perm.
// Both the uncached task and the store's fill go through it. With instr
// the formation is charged to st's assembly timer and the factorisation
// to its solve timer.
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

// laneOffsets turns a factored lane panel's per-lane row permutations
// (perm as la.FactorLanes leaves them) into gather offsets into a
// lane-major right-hand side of nG groups that starts at the panel's
// first group: off[i*w + l] is the offset of entry i of lane l's
// permuted right-hand side, b_l[perm_l(i)].
func laneOffsets(off []int32, perm []int, n, w, nG int) {
	for l := 0; l < w; l++ {
		for i, q := range perm[l*n : l*n+n] {
			off[i*w+l] = int32(q*nG + l)
		}
	}
}

// solveLanes solves the right-hand sides of a factored panel (lu as
// la.FactorLanes leaves it, off from laneOffsets) whose first sigma_t
// run is run: each lane's right-hand side is gathered through the
// offsets from the lane-major rhs straight into x, the task's psi slab,
// and one la.TriSolveLanes call solves the w systems in place there —
// the lanes a stripe of rows nG apart, so nothing is scattered back. The
// lanes of a wider panel are single-group runs; a width-1 panel's run of
// k groups shares its one factor, solved as k single-lane columns.
func solveLanes(lu []float64, off []int32, rhs, x []float64, run sigtRun, n, w, nG int) {
	off = off[:n*w]
	for g := int(run.g0); g < int(run.g0+run.k); g++ {
		b, xg := rhs[g:], x[g:]
		switch w {
		case 4:
			for i := 0; i < n; i++ {
				o := off[i*4 : i*4+4 : i*4+4]
				xi := xg[i*nG : i*nG+4 : i*nG+4]
				xi[0], xi[1], xi[2], xi[3] = b[o[0]], b[o[1]], b[o[2]], b[o[3]]
			}
		case 2:
			for i := 0; i < n; i++ {
				o := off[i*2 : i*2+2 : i*2+2]
				xi := xg[i*nG : i*nG+2 : i*nG+2]
				xi[0], xi[1] = b[o[0]], b[o[1]]
			}
		default:
			for i, o := range off {
				xg[i*nG] = b[o]
			}
		}
		la.TriSolveLanes(lu, xg, n, w, nG)
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
	var slotElem []int32 // each slot's first element, whose outflow sets the entries keep
	for e := 0; e < s.nE; e++ {
		key := int(class[e])*nMat + cfg.Mesh.Elems[e].Material
		if slotOf[key] < 0 {
			slotOf[key] = int32(len(slotElem))
			slotElem = append(slotElem, int32(e))
		}
	}
	// Every run holds n*n factor floats and n offsets, every entry a
	// fused block per inflow face.
	n, nf := s.nN, s.re.NF
	nSlots := len(slotElem)
	masks := make([]uint8, s.nA*nSlots)
	var floats, offs int64
	for a := 0; a < s.nA; a++ {
		for sl, e := range slotElem {
			runs := len(s.sigtRuns[cfg.Mesh.Elems[e].Material])
			m := s.outflowMask(a, int(e))
			masks[a*nSlots+sl] = m
			floats += int64(runs*n*n + inflowFaces(m)*nf*nf)
			offs += int64(runs * n)
		}
	}
	bytes := floats*8 + offs*4
	if pre && bytes > preAssembledLimit {
		return nil, fmt.Errorf("core: pre-assembled matrices would need %d GiB; refuse above %d GiB", bytes>>30, preAssembledLimit>>30)
	}
	if !pre && bytes > factorCacheLimit {
		return nil, nil
	}
	c := &factorCache{
		class:   class,
		slotOf:  slotOf,
		nMat:    nMat,
		nSlots:  nSlots,
		n:       n,
		entries: make([]facEntry, s.nA*nSlots),
		// Under the 16 GiB refusal the offset slab stays below 2^31
		// entries: every run stores n*n floats beside its n offsets.
		off: make([]int32, offs),
	}
	lu := make([]float64, floats)
	var off int32
	for a := 0; a < s.nA; a++ {
		for sl, e := range slotElem {
			runs := len(s.sigtRuns[cfg.Mesh.Elems[e].Material])
			ent := &c.entries[a*nSlots+sl]
			ent.mask = masks[a*nSlots+sl]
			k := runs*n*n + inflowFaces(ent.mask)*nf*nf
			ent.lu, lu = lu[:k:k], lu[k:]
			ent.off = off
			off += int32(runs * n)
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

// inflowFaces counts the faces an outflow mask leaves inflow.
func inflowFaces(mask uint8) int {
	return fem.NumFaces - bits.OnesCount8(mask)
}

// run returns the factor and gather offsets of run r of ent under a plan
// of width-1 panels only (the eager policy's): a row-major LU factor, and
// offsets q*nG for row q of the permuted right-hand side.
func (c *factorCache) run(ent *facEntry, r int) ([]float64, []int32) {
	n := c.n
	o := int(ent.off) + r*n
	return ent.lu[r*n*n : (r+1)*n*n], c.off[o : o+n]
}

// blocks returns the fused inflow face blocks of ent, an entry of a
// material with nRuns sigma_t runs.
func (c *factorCache) blocks(ent *facEntry, nRuns int) []float64 {
	return ent.lu[nRuns*c.n*c.n:]
}

// factor returns the stored factor and gather offsets of (angle, elem,
// group) (run). Only the eager policy may call it: there every entry is
// ready once New returns, every element owns its entry, so no mask can
// mismatch, and every run is a width-1 panel.
func (c *factorCache) factor(s *Solver, a, e, g int) ([]float64, []int32) {
	mat := s.cfg.Mesh.Elems[e].Material
	runs := s.sigtRuns[mat]
	r := 0
	for int(runs[r].g0+runs[r].k) <= g {
		r++
	}
	return c.run(c.entry(a, e, mat), r)
}

// solve writes the task's solutions against the ready entry ent into its
// psi slab, panel by panel, from rhs, its lane-major right-hand sides
// (solveLanes).
func (c *factorCache) solve(s *Solver, ent *facEntry, mat int, rhs, slab []float64) {
	n := c.n
	runs := s.sigtRuns[mat]
	off := c.off[ent.off:]
	for _, p := range s.plan[mat] {
		r0, w := int(p.r0), int(p.w)
		solveLanes(ent.lu[r0*n*n:(r0+w)*n*n], off, rhs, slab, runs[r0], n, w, s.nG)
		off = off[w*n:]
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
// its outflow mask does not match the entry's, the entry is mid-build by
// another task, or its factorisation failed.
func (c *factorCache) acquire(s *Solver, st *workerState, a, e, mat int) *facEntry {
	ent := c.entry(a, e, mat)
	if ent.mask != s.outflowMask(a, e) {
		return nil
	}
	switch ent.state.Load() {
	case facReady:
		return ent
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
// Every panel is factored in place in the entry by factorPanel, which
// leaves the lanes interleaved, its row permutations becoming the gather
// offsets the solve reads (laneOffsets). The entry also takes the task's
// fused inflow face blocks, each the la.Fuse3 sum the task would form.
// The whole fill — base assembly included — is charged to the worker's
// solve timer: it is the factorisation the cached sweeps no longer pay,
// and counting it as assembly would skew the two shares the trace reads
// against each other.
func (c *factorCache) fill(s *Solver, st *workerState, ent *facEntry, a, e, mat int) error {
	if s.cfg.Instrument {
		defer func(t0 time.Time) { st.solveNS += time.Since(t0).Nanoseconds() }(time.Now())
	}
	s.assembleBase(a, e, st.base)
	runs := s.sigtRuns[mat]
	n := c.n
	off := c.off[ent.off:]
	for _, p := range s.plan[mat] {
		r0, w := int(p.r0), int(p.w)
		perm := st.perm[:w*n]
		if err := s.factorPanel(st, ent.lu[r0*n*n:(r0+w)*n*n], perm, e, mat, p, false); err != nil {
			ent.state.Store(facFailed)
			return fmt.Errorf("core: factorising angle %d elem %d group %d: %w", a, e, runs[r0].g0, err)
		}
		laneOffsets(off[:w*n], perm, n, w, s.nG)
		off = off[w*n:]
	}
	fb := c.blocks(ent, len(runs))
	om := s.cfg.Quad.Angles[a].Omega
	t := s.topos[a]
	k := s.re.NF * s.re.NF
	for f := 0; f < fem.NumFaces; f++ {
		if t.IsInflow(e, f) {
			face := &s.em[e].Face[f]
			la.Fuse3(fb[:k], face[0], face[1], face[2], om[0], om[1], om[2])
			fb = fb[k:]
		}
	}
	ent.state.Store(facReady)
	return nil
}
