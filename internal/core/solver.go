package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"unsnap/internal/accel"
	"unsnap/internal/build"
	"unsnap/internal/fem"
	"unsnap/internal/la"
	"unsnap/internal/mesh"
)

// Solver is a configured UnSNAP transport solver over one spatial domain
// (the whole mesh, or one rank's subdomain under the block Jacobi driver).
// Everything derived from the topology alone lives in the immutable,
// possibly shared build artifact (art, with re/conn/em/topos as direct
// views into it); everything the iteration mutates is allocated
// per-solver.
type Solver struct {
	cfg Config
	// art is the problem's build artifact — read-only, possibly shared
	// with sibling solvers through a build.Cache. Solver methods must
	// never write through it.
	art  *build.Artifact
	re   *fem.RefElement
	conn *mesh.Connectivity
	em   []*fem.ElementMatrices

	nE, nG, nN, nA int // elements, groups, nodes/element, angles
	// stride is the distance between two nodes of one group in psi,
	// mPrev, mq and mq1: nG under LayoutLanes, else 1.
	stride int

	topos []*build.Topology // per angle (deduplicated pointers)

	// sets partitions the ordinates into the engine's angle sets, in
	// ordinate order (buildAngleSets): task set*nE+e runs every lane of
	// (set, element e), and the factor store keys its entries on the set.
	// setOf maps an ordinate to its set. Every set is one ordinate outside
	// the engine and under PreAssembled.
	sets  []angleSet
	setOf []int32

	psi []float64 // angular flux, layout per scheme (psiIdx)
	// lag is the lag store (cyclic meshes only): one slot of nf*nG values
	// per (ordinate, lagged inflow face), holding the upwind element's psi
	// on that face in this element's face-node order (through conn.Perm),
	// groups fastest. Ordinate a's slots start at slot lagOff[a] and are
	// numbered by Topology.LagIndex. refillLag rewrites every slot from
	// psi at the end of each sweep, so a lagged coupling reads the
	// previous iterate whatever order the tasks run in. Nil when no
	// topology has lagged faces.
	lag    []float64
	lagOff []int
	phi    []float64 // scalar flux
	phiOld []float64
	qOuter []float64 // fixed + group-to-group source (per outer)
	// mq is the mass-weighted total source M (qOuter + within-group
	// scattering): the angle-independent volumetric right-hand side of
	// every task, formed once per inner by PrepareInner so no task
	// multiplies by the mass matrix (see loadSource). It is laid out like
	// one ordinate of psi (srcIdx), so under LayoutLanes a task's source
	// is one contiguous block.
	mq []float64

	// Time-dependent state: the mass-weighted previous-step angular flux
	// M psi_prev (psi layout) and the effective total cross section
	// sigma_t + 1/(v_g dt); for steady runs sigtEff aliases the library
	// totals and mPrev is nil.
	mPrev   []float64
	sigtEff [][]float64

	// sigtRuns[m] is the equal-sigma_t run decomposition of sigtEff[m] —
	// the batched kernel factors once per run and solves each of the
	// run's groups against that factor (kernel.go).
	sigtRuns [][]sigtRun

	// plan[m] groups material m's runs into lane panels (panelPlan): the
	// uncached batched task and the factor store's fill both form and
	// factor each panel as one la.FactorLanes call, and the store's
	// entries are laid out by it.
	plan [][]facPanel

	// DSA acceleration state (Config.Accelerate == AccelDSA): the
	// per-group SPD coarse accelerator assembled over the artifact's
	// geometric skeleton, plus the cell-sized scratch Accelerate reuses
	// every inner. All nil when acceleration is off.
	dsa     *accel.DSA
	dsaGeo  *accel.Geometry
	dsaDphi []float64
	dsaCorr []float64

	// fc is the factor store, the one resident form of a local operator:
	// filled lazily by the batched kernel's tasks, or eagerly at New under
	// Config.PreAssembled; nil when the solver keeps no factors (see
	// newFactorCache for the gates).
	fc *factorCache

	// P1 scattering state (ScatOrder 1): the current J per dimension, its
	// outer source and the mass-weighted total first-moment source
	// mq1[d] = M (qOuter1[d] + within-group P1 scattering), the first two
	// in the scalar-flux layout and mq1 in mq's; nil when isotropic.
	cur     [3][]float64
	qOuter1 [3][]float64
	mq1     [3][]float64

	workers []*workerState

	// pool is the solver's one team of workers: every parallel loop — the
	// source passes, the engine's phases, the bucket schemes' loops, the
	// flux reduction — is a round of it, and a sweep's first error collects
	// in it. See doc.go, "Worker pool and lifecycle".
	pool *workerPool

	// The sweep engine's schedule and phase state (engine-backed schemes
	// only, built on first use); see engine.go.
	engine *engine

	// Streamed halo coupling (Config.External) and the sticky cancel flag
	// of the externally-driven sweep API; see external.go.
	ext       *extState
	cancelled atomic.Bool

	// The statically-chunked round bodies of ComputeOuterSource,
	// PrepareInner, the flux reduction, the lag store's refill and
	// storePrevStep, built once at New so the steady-state iteration
	// creates no garbage (pinned by TestSweepTaskAllocFree and
	// TestArmedSweepAllocFree): a closure literal at the call site would
	// be allocated on every round.
	outerSrcRoundFn func(w int)
	prepRoundFn     func(w int)
	reduceRoundFn   func(w int)
	lagRoundFn      func(w int)
	prevStepRoundFn func(w int)

	// instrumentation totals (nanoseconds)
	asmNS, solveNS int64

	// Run state of the solver as its own Stepper: the flux at the start
	// of the current outer, and the time spent inside Inner's sweeps.
	outerPrev []float64
	sweepTime time.Duration

	setupTime time.Duration
}

// held is what a solver holds outside the collector's reach: its
// workers' goroutines and its store's slabs. Close releases both, and so
// does the cleanup of a solver dropped without Close.
type held struct {
	pool *workerPool
	fc   *factorCache
}

// New builds a solver: acquires the problem's build artifact — injected
// (Config.Artifact), cached (Config.Cache) or built privately — and
// allocates the per-solve state arrays in the scheme's layout. The
// artifact carries everything topology-derived (face matching, element
// matrices, per-ordinate schedules and condensations); a cache hit
// therefore skips the entire build phase.
func New(cfg Config) (*Solver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	art, err := BuildArtifact(cfg)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		cfg:    cfg,
		art:    art,
		re:     art.Re,
		conn:   art.Conn,
		em:     art.EM,
		topos:  art.Topos,
		nE:     cfg.Mesh.NumElems(),
		nG:     cfg.Lib.NumGroups,
		nN:     art.Re.N,
		nA:     cfg.Quad.NumAngles(),
		stride: 1,
	}
	if cfg.Scheme.Layout() == LayoutLanes {
		s.stride = s.nG
	}

	// Per-solve view of the streamed halo faces (the classification
	// itself was baked into the artifact's topologies).
	s.buildExternal()

	size := s.nE * s.nG * s.nN
	s.psi = make([]float64, s.nA*size)
	s.buildLagStore()
	s.phi = make([]float64, size)
	s.phiOld = make([]float64, size)
	s.qOuter = make([]float64, size)
	s.mq = make([]float64, size)

	// Effective total cross section: the steady value, or the steady
	// value plus the time-absorption term vdelt for BDF1 stepping.
	if cfg.Time != nil {
		if err := cfg.Time.validate(s.nG); err != nil {
			return nil, err
		}
		s.mPrev = make([]float64, s.nA*size)
		s.sigtEff = make([][]float64, len(cfg.Lib.Total))
		for m := range cfg.Lib.Total {
			s.sigtEff[m] = make([]float64, s.nG)
			for g := 0; g < s.nG; g++ {
				s.sigtEff[m][g] = cfg.Lib.Total[m][g] + s.vdelt(g)
			}
		}
	} else {
		s.sigtEff = cfg.Lib.Total
	}
	s.sets, s.setOf = buildAngleSets(&cfg, s.topos, s.nG)
	s.sigtRuns = buildSigtRuns(s.sigtEff)
	s.plan = make([][]facPanel, len(s.sigtRuns))
	for mat, runs := range s.sigtRuns {
		s.plan[mat] = panelPlan(runs, !cfg.PreAssembled)
	}

	if cfg.Accelerate == AccelDSA {
		if art.Accel == nil {
			return nil, fmt.Errorf("core: AccelDSA requires an artifact with the DSA geometric operator (rebuild with this version)")
		}
		materials := make([]int, s.nE)
		for e := range materials {
			materials[e] = cfg.Mesh.Elems[e].Material
		}
		s.dsaGeo = art.Accel
		s.dsa = accel.New(art.Accel, materials, cfg.Lib)
		s.dsaDphi = make([]float64, s.nE)
		s.dsaCorr = make([]float64, s.nE)
	}

	if cfg.ScatOrder >= 1 {
		for d := 0; d < 3; d++ {
			s.cur[d] = make([]float64, size)
			s.qOuter1[d] = make([]float64, size)
			s.mq1[d] = make([]float64, size)
		}
	}

	s.workers = make([]*workerState, cfg.Threads)
	for w := range s.workers {
		s.workers[w] = newWorkerState(art.KernelDims(), s.nG, s.maxSetWidth(), cfg.Scheme.EngineBacked())
	}
	s.pool = newWorkerPool(cfg.Threads)
	s.initRoundBodies()
	if s.fc, err = newFactorCache(s); err != nil {
		s.Close() // the eager fill may have started the workers
		return nil, err
	}
	// The one GC-path stop: an unreachable solver's parked workers return
	// and its store's slabs are released. It must not wait for the
	// workers — that would block the cleanup goroutine.
	runtime.AddCleanup(s, func(r held) {
		r.pool.halt(false)
		r.fc.release()
	}, held{s.pool, s.fc})
	s.setupTime = time.Since(start)
	return s, nil
}

// initRoundBodies builds the round bodies of the static loops, each worker
// taking its chunk of the elements (or, for the reduction, of the flux
// array).
func (s *Solver) initRoundBodies() {
	p := s.pool
	s.outerSrcRoundFn = func(w int) {
		for e, hi := p.chunk(w, s.nE); e < hi; e++ {
			s.outerSource(e)
		}
	}
	s.prepRoundFn = func(w int) {
		for e, hi := p.chunk(w, s.nE); e < hi; e++ {
			s.prepInner(s.workers[w], e)
		}
	}
	s.prevStepRoundFn = func(w int) {
		for idx, hi := p.chunk(w, s.nA*s.nE); idx < hi; idx++ {
			s.prevStep(s.workers[w], idx/s.nE, idx%s.nE)
		}
	}
	s.lagRoundFn = func(w int) {
		for a, hi := p.chunk(w, s.nA); a < hi; a++ {
			s.refillLag(a)
		}
	}
	if s.stride > 1 {
		s.reduceRoundFn = func(w int) {
			for e, hi := p.chunk(w, s.nE); e < hi; e++ {
				s.reduceElem(s.workers[w], e)
			}
		}
		return
	}
	angles := s.cfg.Quad.Angles
	p1 := s.cfg.ScatOrder >= 1
	size := s.nE * s.nG * s.nN
	s.reduceRoundFn = func(w int) {
		lo, hi := p.chunk(w, size)
		for a := range angles {
			wt := angles[a].Weight
			ps := s.psi[a*size+lo : a*size+hi]
			la.AddScaled(s.phi[lo:hi], ps, wt)
			if p1 {
				om := angles[a].Omega
				for d := 0; d < 3; d++ {
					la.AddScaled(s.cur[d][lo:hi], ps, wt*om[d])
				}
			}
		}
	}
}

// reduceElem is the flux reduction of element e under LayoutLanes, where
// psi keeps the groups fastest and phi the nodes: phi += w_a psi_a and,
// for P1, J_d += (w_a Omega_d) psi_a, ordinate by ordinate (reduceBlock).
func (s *Solver) reduceElem(st *workerState, e int) {
	blk := s.nN * s.nG
	acc := st.rhs[:blk:blk]
	s.reduceBlock(acc, s.phi[e*blk:e*blk+blk], e, -1)
	if s.cfg.ScatOrder >= 1 {
		for d := 0; d < 3; d++ {
			s.reduceBlock(acc, s.cur[d][e*blk:e*blk+blk], e, d)
		}
	}
}

// reduceBlock adds every ordinate's weighted psi block of element e —
// weight w_a, times Omega_a,d for d >= 0 — to y, the element's block of
// a scalar-flux array: y is transposed into acc (psi's order), each
// ordinate added with one la.AddScaled, and the sum transposed back.
// Every entry gets the sum the daxpy stream forms over the other
// layouts, term for term in the same order.
func (s *Solver) reduceBlock(acc, y []float64, e, d int) {
	n, nG := s.nN, s.nG
	for g := 0; g < nG; g++ {
		for i, v := range y[g*n : g*n+n] {
			acc[i*nG+g] = v
		}
	}
	for a, ang := range s.cfg.Quad.Angles {
		w := ang.Weight
		if d >= 0 {
			w *= ang.Omega[d]
		}
		o := (a*s.nE + e) * len(acc)
		la.AddScaled(acc, s.psi[o:o+len(acc)], w)
	}
	for g := 0; g < nG; g++ {
		yg := y[g*n : g*n+n]
		for i := range yg {
			yg[i] = acc[i*nG+g]
		}
	}
}

// prepInner is PrepareInner's pass over element e.
func (s *Solver) prepInner(st *workerState, e int) {
	lib := s.cfg.Lib
	p1 := s.cfg.ScatOrder >= 1
	mat := s.cfg.Mesh.Elems[e].Material
	n, ns := s.nN, s.stride
	for g := 0; g < s.nG; g++ {
		base, src := s.phiIdx(e, g), s.srcIdx(e, g)
		sc := lib.Scatter[mat][g][g]
		for i := 0; i < n; i++ {
			s.mq[src+i*ns] = s.qOuter[base+i] + sc*s.phi[base+i]
			s.phiOld[base+i] = s.phi[base+i]
			s.phi[base+i] = 0
		}
		if p1 {
			sc1 := lib.ScatterP1[mat][g][g]
			for d := 0; d < 3; d++ {
				for i := 0; i < n; i++ {
					s.mq1[d][src+i*ns] = s.qOuter1[d][base+i] + sc1*s.cur[d][base+i]
					s.cur[d][base+i] = 0
				}
			}
		}
	}
	// The source pass: the element's total sources become M q in
	// place. This is RHS formation hoisted out of the tasks, so it is
	// charged to the assembly timer.
	var t0 time.Time
	if s.cfg.Instrument {
		t0 = time.Now()
	}
	mass := s.em[e].Mass
	for g := 0; g < s.nG; g++ {
		src := s.srcIdx(e, g)
		massApply(s.mq[src:], ns, mass, st.tmp)
		if p1 {
			for d := 0; d < 3; d++ {
				massApply(s.mq1[d][src:], ns, mass, st.tmp)
			}
		}
	}
	if s.cfg.Instrument {
		st.asmNS += time.Since(t0).Nanoseconds()
	}
}

// BuildArtifact resolves the configuration's build artifact: the
// injected Config.Artifact after a compatibility check, a cache lookup
// when Config.Cache is set and the problem is content-addressable, or a
// private build. The one-shot New routes through it, so cached and
// uncached construction share one code path; drivers that want the
// build/solve split explicitly call it directly (unsnap.Build).
func BuildArtifact(cfg Config) (*build.Artifact, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := cfg.buildSpec()
	if cfg.Artifact != nil {
		if err := cfg.Artifact.Compatible(&spec); err != nil {
			return nil, err
		}
		return cfg.Artifact, nil
	}
	if cfg.Cache != nil {
		if cfg.CacheTenant != "" || cfg.CacheTenantBytes > 0 {
			return cfg.Cache.GetOrBuildTenant(cfg.CacheTenant, cfg.CacheTenantBytes, spec)
		}
		return cfg.Cache.GetOrBuild(spec)
	}
	return build.Build(spec)
}

// buildLagStore sizes the lag store: ordinate a's slots follow those of
// the ordinates before it, one per lagged face of its topology. It stays
// nil when no topology lags a face.
func (s *Solver) buildLagStore() {
	off := make([]int, s.nA+1)
	for a, t := range s.topos {
		n := 0
		for _, word := range t.Lagged {
			n += bits.OnesCount64(word)
		}
		off[a+1] = off[a] + n
	}
	if off[s.nA] > 0 {
		s.lag = make([]float64, off[s.nA]*s.re.NF*s.nG)
		s.lagOff = off
	}
}

// lagSlot returns ordinate a's lag-store slot of lagged face f of element
// e (t is a's topology).
func (s *Solver) lagSlot(t *build.Topology, a, e, f int) []float64 {
	k := s.re.NF * s.nG
	o := (s.lagOff[a] + t.LagIndex(e, f)) * k
	return s.lag[o : o+k]
}

// refillLag rewrites ordinate a's lag-store slots from psi, in slot order
// (ascending (element, face), the order LagIndex counts): each lagged
// face's upwind neighbour values through the conforming-face
// permutation, as the interior gather reads them.
func (s *Solver) refillLag(a int) {
	t := s.topos[a]
	nf, nG := s.re.NF, s.nG
	slot := s.lag[s.lagOff[a]*nf*nG:]
	for w, word := range t.Lagged {
		for ; word != 0; word &= word - 1 {
			bit := w*64 + bits.TrailingZeros64(word)
			e, f := bit/fem.NumFaces, bit%fem.NumFaces
			fc := &s.cfg.Mesh.Elems[e].Faces[f]
			perm := s.conn.Perm[e][f]
			nbNodes := s.re.FaceNodes[fc.NeighborFace]
			for g := 0; g < nG; g++ {
				pb := s.psiIdx(a, fc.Neighbor, g)
				for l := 0; l < nf; l++ {
					slot[l*nG+g] = s.psi[pb+nbNodes[perm[l]]*s.stride]
				}
			}
			slot = slot[nf*nG:]
		}
	}
}

// refillLagStore rewrites the lag store from the sweep that just
// finished, one round of the pool; a no-op on acyclic problems.
func (s *Solver) refillLagStore() {
	if s.lag != nil {
		s.pool.run(s.lagRoundFn)
	}
}

// ResetLagSnapshot zeroes the lag store, so the next sweep's lagged
// couplings read the zero initial iterate (the state of a fresh solver).
// The pipelined comm driver calls it at the start of every Run: its
// cross-rank lagged slots restart from zero per Run (their channels are
// per-run), and resetting the intra-rank store keeps both kinds of lagged
// coupling on identical semantics. A no-op on acyclic problems.
func (s *Solver) ResetLagSnapshot() { clear(s.lag) }

// ResetState zeroes every iterate the solver accumulates across sweeps —
// angular flux (psi and the lag store lagged couplings read), scalar
// flux, the source arrays, the P1 current state, the time-stepping
// history and the streamed-inflow slots — returning the solver to the
// state of a fresh New. The comm driver's retry policy calls it between
// attempts so a rerun after a failed or timed-out sweep starts from the
// identical zero iterate a fresh solver would, preserving the
// determinism guarantees of the retried run.
func (s *Solver) ResetState() {
	zero := func(v []float64) {
		for i := range v {
			v[i] = 0
		}
	}
	zero(s.psi)
	zero(s.lag)
	zero(s.phi)
	zero(s.phiOld)
	zero(s.qOuter)
	zero(s.mq)
	if s.mPrev != nil {
		zero(s.mPrev)
	}
	for d := 0; d < 3; d++ {
		if s.cur[d] != nil {
			zero(s.cur[d])
			zero(s.qOuter1[d])
			zero(s.mq1[d])
		}
	}
	if s.ext != nil {
		zero(s.ext.data)
	}
}

// ---- layout index helpers ----

// phiIdx returns the offset of node 0 of (elem, group) in the scalar-flux
// arrays (phi, phiOld, qOuter, cur, qOuter1): node fastest in every
// layout, LayoutLanes keeping LayoutEG's order.
func (s *Solver) phiIdx(e, g int) int {
	if s.cfg.Scheme.Layout() == LayoutGE {
		return (g*s.nE + e) * s.nN
	}
	return (e*s.nG + g) * s.nN
}

// psiIdx returns the offset of node 0 of (angle, elem, group) in psi
// (and mPrev); node i sits stride entries further per node.
func (s *Solver) psiIdx(a, e, g int) int {
	switch s.cfg.Scheme.Layout() {
	case LayoutGE:
		return ((a*s.nG+g)*s.nE + e) * s.nN
	case LayoutLanes:
		return (a*s.nE+e)*s.nN*s.nG + g
	}
	return ((a*s.nE+e)*s.nG + g) * s.nN
}

// srcIdx returns the offset of node 0 of (elem, group) in the stored
// source products mq and mq1, laid out like one ordinate of psi.
func (s *Solver) srcIdx(e, g int) int {
	if s.stride > 1 {
		return e*s.nN*s.nG + g
	}
	return s.phiIdx(e, g)
}

// ---- public accessors ----

// NumElems returns the element count.
func (s *Solver) NumElems() int { return s.nE }

// Mesh returns the mesh the solver was built on. Mutating it after
// construction is only safe for per-element source data (the chaos
// tests' NaN poisoning); geometry and connectivity are baked into the
// schedules at New.
func (s *Solver) Mesh() *mesh.Mesh { return s.cfg.Mesh }

// NumGroups returns the energy group count.
func (s *Solver) NumGroups() int { return s.nG }

// NumNodes returns the nodes per element.
func (s *Solver) NumNodes() int { return s.nN }

// NumAngles returns the ordinate count.
func (s *Solver) NumAngles() int { return s.nA }

// SetupTime reports the time spent in New (matching, integration,
// scheduling, allocation, optional pre-assembly).
func (s *Solver) SetupTime() time.Duration { return s.setupTime }

// Phi returns the scalar flux at (elem, group, node).
func (s *Solver) Phi(e, g, node int) float64 {
	return s.phi[s.phiIdx(e, g)+node]
}

// Psi returns the angular flux at (angle, elem, group, node).
func (s *Solver) Psi(a, e, g, node int) float64 {
	return s.psi[s.psiIdx(a, e, g)+node*s.stride]
}

// Current returns component d of the P1 current J at (elem, group, node).
// It is only meaningful with Config.ScatOrder >= 1 (zero otherwise).
func (s *Solver) Current(d, e, g, node int) float64 {
	if s.cur[d] == nil {
		return 0
	}
	return s.cur[d][s.phiIdx(e, g)+node]
}

// PsiFaceValues gathers the nodal angular flux of (angle, elem, group) on
// face f, ordered like fem.RefElement.FaceNodes[f], into out.
func (s *Solver) PsiFaceValues(a, e, g, f int, out []float64) {
	base := s.psiIdx(a, e, g)
	for k, node := range s.re.FaceNodes[f] {
		out[k] = s.psi[base+node*s.stride]
	}
}

// FluxIntegral returns the volume integral of the group-g scalar flux.
func (s *Solver) FluxIntegral(g int) float64 {
	total := 0.0
	for e := 0; e < s.nE; e++ {
		em := s.em[e]
		base := s.phiIdx(e, g)
		for i := 0; i < s.nN; i++ {
			// Int u_i dV is the i-th row sum of the mass matrix.
			rs := 0.0
			row := em.Mass[i*s.nN : (i+1)*s.nN]
			for _, v := range row {
				rs += v
			}
			total += s.phi[base+i] * rs
		}
	}
	return total
}

// ScheduleStats summarises the sweep schedules: the number of distinct
// topologies, and bucket counts/sizes of the first ordinate's schedule.
func (s *Solver) ScheduleStats() (distinct int, buckets int, maxBucket int, avgBucket float64) {
	t0 := s.topos[0]
	return s.art.Distinct, len(t0.Sched.Buckets), t0.Sched.MaxBucket(), t0.Sched.AvgBucket()
}

// Lagged reports how many dependency edges were lagged (cycle breaking)
// across all distinct topologies.
func (s *Solver) Lagged() int {
	seen := make(map[*build.Topology]bool)
	n := 0
	for _, t := range s.topos {
		if !seen[t] {
			seen[t] = true
			n += len(t.Sched.Lagged)
		}
	}
	return n
}

// RefElement exposes the solver's reference element (for diagnostics and
// error analysis in examples).
func (s *Solver) RefElement() *fem.RefElement { return s.re }

// Artifact returns the solver's build artifact — possibly shared with
// sibling solvers through a build.Cache, and read-only either way.
func (s *Solver) Artifact() *build.Artifact { return s.art }

// PhaseTimes reports the accumulated per-solve assembly and dense-solve
// times (only meaningful with Config.Instrument). Callers driving the
// iteration manually (benchmarks, the Table II harness) read these instead
// of Result.
func (s *Solver) PhaseTimes() (assemble, solve time.Duration) {
	return time.Duration(s.asmNS), time.Duration(s.solveNS)
}

// ResetPhaseTimes clears the phase-time accumulators.
func (s *Solver) ResetPhaseTimes() { s.asmNS, s.solveNS = 0, 0 }
