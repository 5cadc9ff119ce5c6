package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"unsnap/internal/sweep"
)

// This file implements the persistent sweep engine behind SchemeEngine.
// Instead of the legacy fork/join per schedule bucket per ordinate, a
// pool of long-lived workers executes each octant of SweepAllAngles as
// one task graph:
//
//   - Counter-driven wavefronts: a task is all energy groups of one
//     (ordinate, element) pair. Workers pop ready tasks from per-worker
//     Chase-Lev work-stealing deques and, on completion, decrement the
//     remaining-upwind counters of the downwind tasks (sweep.Graph),
//     pushing the ones that reach zero. No bucket barriers.
//   - Angle-parallel execution: every ordinate of an octant is in flight
//     at once (their dependency graphs are independent), multiplying the
//     available parallelism by Quad.PerOctant on shallow-bucket meshes.
//   - Octant overlap: on vacuum problems (no Boundary callback) nothing
//     couples the octants inside one sweep, so the engine fuses all eight
//     octants into a single counter-driven phase — task ids span (octant,
//     ordinate, element) — removing the seven quiesce barriers and the
//     per-octant wavefront starvation behind the paper's Figure 3
//     strong-scaling wall. Cyclic meshes stay fused:
//     their lagged couplings read the previous-iterate psi snapshot, not
//     an in-sweep ordering. Boundary callbacks (reflective mirrors, lagged
//     halos) run sequential octant phases, preserving the legacy
//     mirror-ordinate ordering.
//   - Lock-free deterministic flux reduction: tasks store only the
//     angular flux; the scalar flux (and P1 current) is reduced from psi
//     once per sweep in fixed ordinate order, so results are bitwise
//     identical across runs and across thread counts, with no locks.
//
// The engine's task body (kernel.go) also fuses each face block
// om·Fx + om·Fy + om·Fz once per task and assembles the group-independent
// matrix part once per task, cutting the assembly flops the legacy path
// spends re-combining the three directional factors for every group; the
// local operators worth keeping across tasks are kept, factored, in the
// one factor store (faccache.go).

// ---- work-stealing deque ----

// wsDeque is a fixed-capacity Chase-Lev work-stealing deque of task ids.
// The owning worker pushes and pops at the bottom without contention;
// other workers steal from the top with a CAS. The engine sizes every
// deque to a full phase's task count (one octant's, or the whole sweep's
// in fused mode), so the buffer can never overflow or wrap onto live
// entries.
type wsDeque struct {
	top    atomic.Int64
	bottom atomic.Int64
	mask   int64
	buf    []atomic.Int64
}

func newWSDeque(capacity int) *wsDeque {
	c := int64(1)
	for c < int64(capacity) {
		c <<= 1
	}
	return &wsDeque{mask: c - 1, buf: make([]atomic.Int64, c)}
}

// reset may only be called while no worker owns or steals from the deque
// (the engine quiesces the pool between octant phases).
func (d *wsDeque) reset() { d.top.Store(0); d.bottom.Store(0) }

func (d *wsDeque) push(t int64) {
	b := d.bottom.Load()
	d.buf[b&d.mask].Store(t)
	d.bottom.Store(b + 1)
}

func (d *wsDeque) pop() (int64, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		d.bottom.Store(t)
		return 0, false
	}
	v := d.buf[b&d.mask].Load()
	if t == b {
		// Last entry: race the thieves for it.
		ok := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !ok {
			return 0, false
		}
	}
	return v, true
}

// steal takes the oldest entry. A failed CAS means a concurrent steal or
// pop won the entry; the caller just tries elsewhere.
func (d *wsDeque) steal() (int64, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	v := d.buf[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return 0, false
	}
	return v, true
}

func (d *wsDeque) size() int64 { return d.bottom.Load() - d.top.Load() }

// ---- persistent worker pool ----

// enginePool is the long-lived state shared with the background worker
// goroutines. It deliberately holds no reference back to the Solver:
// phases hand workers an engineJob carrying all per-phase context and
// clear it on completion, so a quiescent pool never roots the solver's
// (large) arrays. That lets the runtime cleanup registered in newEngine
// stop the workers once the solver itself becomes unreachable.
type enginePool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	idle    atomic.Int32 // workers parked mid-phase; updated under mu
	job     *engineJob   // current phase; nil when quiescent (under mu)
	seq     uint64       // bumped with every installed job (under mu)
	stop    bool         // set by the solver's cleanup (under mu)
	running int          // live background workers (under mu)
}

func poolWorker(p *enginePool, w int) {
	// Jobs are tracked by sequence number, not by retaining the pointer:
	// a parked worker must hold no reference into the completed phase, or
	// it would root the solver and the cleanup could never fire.
	var lastSeq uint64
	for {
		p.mu.Lock()
		for (p.job == nil || p.seq == lastSeq) && !p.stop {
			p.cond.Wait()
		}
		if p.stop {
			p.running--
			p.cond.Broadcast() // shutdown joins on running == 0
			p.mu.Unlock()
			return
		}
		job := p.job
		lastSeq = p.seq
		p.mu.Unlock()
		job.run(w)
		p.mu.Lock()
		job.exited++
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// engine owns the scheduling state of the engine-backed schemes for one
// Solver: the per-ordinate task graphs, the whole-sweep schedule (initial
// remaining-upwind counters and seed lists over global task ids), the
// worker deques, and the pool of workers (created once).
//
// Task ids are global across the whole sweep: task a*nE+e is all energy
// groups of (ordinate a, element e). Sequential octant phases execute the
// contiguous id slab of one octant; the fused phase executes all of them
// at once.
type engine struct {
	s      *Solver
	nw     int
	pool   *enginePool // nil when nw == 1 (fully inline execution)
	deques []*wsDeque
	graphs []*sweep.Graph // per angle, shared across angles of one topo

	// fused selects the cross-octant mode: one phase per sweep over all
	// nA*nE tasks instead of eight quiesced per-octant phases. Decided
	// once at build time (see Solver.octantsFusable). External (streamed
	// halo) solvers always fuse (Config.External excludes a Boundary
	// callback): their arriving resolutions address tasks of any octant,
	// so the whole sweep must be armed as one phase.
	fused bool

	// External-coupling schedule (Config.External only): extDeg[t] is the
	// number of streamed upwind faces folded into task t's initial
	// counter, totalExt their sum (one sweep's expected ResolveExternal
	// calls), and pubOff/pubFace the CSR lists of external faces each
	// task publishes on completion. armed is the job installed by
	// ArmSweep and not yet joined by FinishSweep (driver goroutine only).
	extDeg   []int32
	pubOff   []int32
	pubFace  []int32
	totalExt int64
	armed    *engineJob

	// Immutable whole-sweep schedule: initCounts[a*nE+e] is the initial
	// remaining-upwind counter of task (a, e); octSeeds[o] lists octant
	// o's initially-ready tasks; allSeeds is their concatenation in
	// octant order (fused mode only).
	initCounts []int32
	octSeeds   [8][]int32
	allSeeds   []int32

	counts []int32 // working counters of the current phase

	// phaseJob is the reusable job of self-driven phases (runPhase); see
	// the reset comment there.
	phaseJob engineJob

	// cleanup is the GC-path stop registration for the pool; shutdown
	// cancels it so Close/Run cycles do not accumulate cleanup records
	// (and retained stopped pools) on the solver.
	cleanup runtime.Cleanup
}

// engineJob is one phase (an octant slab, or the whole fused sweep)
// handed to the pool.
type engineJob struct {
	eng       *engine
	seeds     []int32
	cursor    atomic.Int64
	remaining atomic.Int64
	stalled   atomic.Bool // a worker detected a stalled phase
	exited    int         // background workers done with this job (under pool.mu)
	record    func(error)

	// External-sweep state: inbox holds tasks made ready by
	// ResolveExternal (workers cannot be pushed to another worker's deque,
	// so injections queue here, under pool.mu), extPending counts the
	// sweep's still-unresolved external dependencies (the stall detector
	// must not fire while data is still in flight), and err collects the
	// job-owned error for FinishSweep (sweeps driven through runSweep
	// record into the caller's closure instead).
	inbox      []int64
	extPending atomic.Int64
	errMu      sync.Mutex
	err        error
}

// recordErr is the record sink of externally-driven jobs.
func (j *engineJob) recordErr(err error) {
	if err == nil {
		return
	}
	j.errMu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.errMu.Unlock()
}

// newEngine builds the engine for s and starts its Threads-1 background
// workers (the sweeping goroutine acts as worker 0). Workers outlive any
// single sweep; a runtime cleanup stops them when s is collected.
func newEngine(s *Solver) *engine {
	per := s.cfg.Quad.PerOctant
	total := s.nA * s.nE
	e := &engine{s: s, nw: s.cfg.Threads, fused: s.octantsFusable()}
	phaseTasks := per * s.nE
	if e.fused {
		phaseTasks = total
	}
	e.deques = make([]*wsDeque, e.nw)
	for w := range e.deques {
		e.deques[w] = newWSDeque(phaseTasks)
	}
	e.counts = make([]int32, total)
	e.initCounts = make([]int32, total)
	e.graphs = make([]*sweep.Graph, s.nA)
	for a := range e.graphs {
		e.graphs[a] = s.topos[a].Graph
	}
	if s.ext != nil {
		e.buildExternalSchedule(s)
	}
	for o := 0; o < 8; o++ {
		var seeds []int32
		for m := 0; m < per; m++ {
			a := s.cfg.Quad.AngleIndex(o, m)
			g := e.graphs[a]
			copy(e.initCounts[a*s.nE:(a+1)*s.nE], g.Indeg)
			if e.extDeg != nil {
				// Streamed upwind faces join the counters; tasks holding any
				// are not ready until ResolveExternal drains them.
				slab := e.initCounts[a*s.nE : (a+1)*s.nE]
				for i, d := range e.extDeg[a*s.nE : (a+1)*s.nE] {
					slab[i] += d
				}
			}
			for _, r := range g.Roots {
				if e.extDeg != nil && e.extDeg[a*s.nE+int(r)] > 0 {
					continue
				}
				seeds = append(seeds, int32(a*s.nE)+r)
			}
		}
		e.octSeeds[o] = seeds
		if e.fused {
			e.allSeeds = append(e.allSeeds, seeds...)
		}
	}
	if e.nw > 1 || s.ext != nil {
		// External solvers need the pool's park/wake machinery even with a
		// single worker: worker 0 must be able to sleep awaiting streamed
		// resolutions instead of spinning (with nw == 1 no background
		// goroutines are started, only the condition variable is used).
		e.pool = &enginePool{running: e.nw - 1}
		e.pool.cond = sync.NewCond(&e.pool.mu)
		for w := 1; w < e.nw; w++ {
			go poolWorker(e.pool, w)
		}
		e.cleanup = runtime.AddCleanup(s, func(p *enginePool) {
			p.mu.Lock()
			p.stop = true
			p.cond.Broadcast()
			p.mu.Unlock()
		}, e.pool)
	}
	return e
}

// ensureEngine lazily builds the engine on the first engine-backed sweep
// (or the first after Close).
func (s *Solver) ensureEngine() *engine {
	if s.engine == nil {
		s.engine = newEngine(s)
	}
	return s.engine
}

// Close stops the engine's and the fork-join pool's background workers
// deterministically. Without it the workers are only reclaimed when the
// garbage collector notices the solver is unreachable — fine for
// short-lived solvers, but a process that holds many solvers alive should
// Close the ones it is done sweeping with. The solver remains fully usable: state queries work,
// and a later sweep simply builds a fresh worker pool. Safe to call
// multiple times, including concurrently: a mutex serialises the
// teardown, so the second Close observes the cleared engine and is a
// no-op. (Close concurrent with an in-flight sweep remains the caller's
// responsibility — the comm driver aborts and joins its run first.)
func (s *Solver) Close() {
	s.closeEngine()
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	s.fj.close()
	s.fj = nil
}

// closeEngine tears down just the sweep engine, leaving the solver usable
// (the next sweep rebuilds the pool): the SetBoundary path, which must
// keep the fork-join helper alive for the sweeps that follow.
func (s *Solver) closeEngine() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.engine != nil {
		s.engine.shutdown()
		s.engine = nil
	}
}

// ensureForkJoin returns the between-phase fork-join pool, rebuilding it
// if a Close discarded it — like the sweep engine, the pool comes back
// lazily so a closed solver stays usable. Nil at one thread: run then
// executes inline.
func (s *Solver) ensureForkJoin() *forkJoin {
	if s.fj == nil && s.cfg.Threads > 1 {
		s.fj = newForkJoin(s, s.cfg.Threads)
	}
	return s.fj
}

// shutdown terminates the pool's background workers and joins them: on
// return every worker has observed stop and is past its last pool access
// (the goroutines themselves retire a hair later, on their final return)
// — the "deterministic" in Close's contract. The pool is quiescent
// between sweeps, so this never interrupts a phase. The GC cleanup path
// deliberately skips the join — it must not block the finalizer
// goroutine — and just signals stop.
func (e *engine) shutdown() {
	if e.pool == nil {
		return
	}
	e.cleanup.Stop() // explicit stop supersedes the GC-path registration
	p := e.pool
	p.mu.Lock()
	p.stop = true
	p.cond.Broadcast()
	for p.running > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// runSweep executes one full sweep: the single fused phase in
// cross-octant mode, or eight sequential octant phases otherwise. A
// stalled phase aborts the remaining octants — the sweep is already
// failed, so their work would be wasted. Per-element solve errors do NOT
// abort (the legacy executors finish the sweep too).
func (e *engine) runSweep(record func(error)) {
	if e.fused {
		e.runPhase(0, len(e.counts), e.allSeeds, record)
		return
	}
	per := e.s.cfg.Quad.PerOctant
	for o := 0; o < 8; o++ {
		if stalled := e.runPhase(o*per*e.s.nE, (o+1)*per*e.s.nE, e.octSeeds[o], record); stalled {
			return
		}
	}
}

// runPhase executes the tasks with ids in [lo, hi) to completion (or to
// a stall, which it reports). The pool is quiescent on entry and on
// return: the caller may touch counters, deques and worker scratch
// freely in between.
func (e *engine) runPhase(lo, hi int, seeds []int32, record func(error)) (stalled bool) {
	copy(e.counts[lo:hi], e.initCounts[lo:hi])
	for _, d := range e.deques {
		d.reset()
	}
	// Reuse the engine's phase job in place: the pool is quiescent between
	// phases, so the reset races with nobody, and the steady-state sweep
	// allocates nothing. Externally-driven sweeps (ArmSweep) build their
	// own job — their lifetime spans FinishSweep, not one phase.
	job := &e.phaseJob
	job.eng = e
	job.seeds = seeds
	job.record = record
	job.cursor.Store(0)
	job.stalled.Store(false)
	job.exited = 0
	job.remaining.Store(int64(hi - lo))
	if e.nw == 1 {
		job.run(0)
		return job.stalled.Load()
	}
	p := e.pool
	p.mu.Lock()
	p.job = job
	p.seq++
	p.cond.Broadcast()
	p.mu.Unlock()
	job.run(0)
	// Quiesce: wait for every background worker to leave the job before
	// the next phase reuses the deques and counters.
	p.mu.Lock()
	for job.exited < e.nw-1 {
		p.cond.Wait()
	}
	p.job = nil
	p.mu.Unlock()
	return job.stalled.Load()
}

// run is the per-worker phase loop: drain own deque, then the seed list,
// then steal, then the external inbox; park when nothing is ready and not
// done.
func (j *engineJob) run(w int) {
	e := j.eng
	own := e.deques[w]
	for {
		if j.remaining.Load() <= 0 {
			return
		}
		t, ok := own.pop()
		if !ok {
			t, ok = j.takeSeed()
		}
		if !ok {
			t, ok = j.stealFrom(w)
		}
		if !ok {
			if e.pool == nil {
				// Inline mode cannot park: an empty scan with work
				// remaining would be a scheduler bug, not contention.
				if j.remaining.Load() > 0 && !j.hasWork() {
					j.stalled.Store(true)
					j.record(errEngineStalled)
					return
				}
				continue
			}
			p := e.pool
			p.mu.Lock()
			if t, ok = j.takeInbox(); ok {
				p.mu.Unlock()
				j.exec(w, t)
				continue
			}
			p.idle.Add(1)
			for !j.hasWork() && j.remaining.Load() > 0 {
				// Every worker (including the sweeping worker 0) is
				// parked here with tasks remaining and nothing visible.
				// If no external resolutions are in flight either, no one
				// holds a task, so nothing can ever be pushed — the phase
				// is stalled. Fail the sweep instead of deadlocking;
				// zeroing remaining releases the peers. With external
				// dependencies pending the workers simply sleep until the
				// comm layer injects the next resolved task.
				if int(p.idle.Load()) == e.nw && j.extPending.Load() == 0 {
					j.stalled.Store(true)
					j.record(errEngineStalled)
					j.remaining.Store(0)
					p.cond.Broadcast()
					break
				}
				p.cond.Wait()
			}
			p.idle.Add(-1)
			p.mu.Unlock()
			continue
		}
		j.exec(w, t)
	}
}

// takeInbox pops one externally-resolved task; caller holds pool.mu.
func (j *engineJob) takeInbox() (int64, bool) {
	n := len(j.inbox)
	if n == 0 {
		return 0, false
	}
	t := j.inbox[n-1]
	j.inbox = j.inbox[:n-1]
	return t, true
}

func (j *engineJob) takeSeed() (int64, bool) {
	i := j.cursor.Add(1) - 1
	if i >= int64(len(j.seeds)) {
		return 0, false
	}
	return int64(j.seeds[i]), true
}

func (j *engineJob) stealFrom(w int) (int64, bool) {
	e := j.eng
	for round := 0; round < 2; round++ {
		for k := 1; k < e.nw; k++ {
			v := e.deques[(w+k)%e.nw]
			if t, ok := v.steal(); ok {
				return t, true
			}
		}
	}
	return 0, false
}

// hasWork reports whether any task is visible in the seed list, the
// external inbox or any deque. Parked workers re-check it under the pool
// mutex, which pairs with pushers taking the mutex to broadcast, so no
// wakeup is lost (the inbox is only ever read and written under that same
// mutex).
func (j *engineJob) hasWork() bool {
	if j.cursor.Load() < int64(len(j.seeds)) {
		return true
	}
	if len(j.inbox) > 0 {
		return true
	}
	for _, d := range j.eng.deques {
		if d.size() > 0 {
			return true
		}
	}
	return false
}

// exec solves all groups of one task and releases its downwind tasks.
// Task ids are global, so the decode needs no phase context: the ordinate
// is t/nE and the element t%nE.
func (j *engineJob) exec(w int, t int64) {
	e := j.eng
	s := e.s
	nE := int64(s.nE)
	a := int(t / nE)
	el := int(t % nE)
	if err := s.solveElem(s.workers[w], a, el); err != nil {
		j.record(err)
	}
	if e.pubOff != nil && s.ext.publish != nil {
		// Stream the finished boundary outflow to downstream ranks before
		// releasing local downwind work: the cross-rank edge is the
		// pipeline's critical path. The task's psi is final (written by
		// this worker just above), and publishes happen even after a solve
		// error so peer message accounting stays intact.
		for _, fi := range e.pubFace[e.pubOff[t]:e.pubOff[t+1]] {
			s.ext.publish(a, el, s.ext.faces[fi].Face)
		}
	}
	base := int64(a) * nE
	own := e.deques[w]
	pushed := false
	for _, d := range e.graphs[a].DownwindOf(el) {
		if atomic.AddInt32(&e.counts[base+int64(d)], -1) == 0 {
			own.push(base + int64(d))
			pushed = true
		}
	}
	if e.pool != nil {
		if pushed && e.pool.idle.Load() > 0 {
			e.pool.mu.Lock()
			e.pool.cond.Broadcast()
			e.pool.mu.Unlock()
		}
		if j.remaining.Add(-1) == 0 {
			e.pool.mu.Lock()
			e.pool.cond.Broadcast()
			e.pool.mu.Unlock()
		}
	} else {
		j.remaining.Add(-1)
	}
}

// ---- deterministic flux reduction ----

// reduceFluxFromPsi folds the quadrature weights into the scalar flux
// (and, for P1 scattering, the current) from the freshly swept angular
// flux: phi += sum_a w_a psi_a, accumulated in fixed ordinate order for
// every node so the result is bitwise reproducible across runs and
// thread counts. Both layouts place psi of angle a at a*len(phi) plus
// the scalar-flux offset, so the reduction is a strided daxpy stream.
func (s *Solver) reduceFluxFromPsi() {
	s.ensureForkJoin().run(s.reduceRoundFn)
}

// ---- octant fusion eligibility ----

// octantsFusable reports whether the engine may run all eight octants as
// one task graph. It requires vacuum boundaries: a Boundary callback
// (reflective mirror reads, block Jacobi halos) may observe the in-sweep
// octant order, which the fused phase does not preserve, so those runs
// keep eight sequential octant phases.
//
// Cycle lagging (AllowCycles) does NOT pin the octant order: lagged
// couplings read the immutable previous-iterate psi snapshot, so their
// values are the same whichever octant runs first — cyclic vacuum
// problems keep the fused eight-octant phase. The deterministic
// reduceFluxFromPsi reduction makes the relaxed execution order
// bitwise-safe for everything else.
func (s *Solver) octantsFusable() bool { return s.cfg.Boundary == nil }

// OctantsFused reports whether the engine overlaps all eight octants in
// one task graph (diagnostics; meaningful after the first engine sweep).
func (s *Solver) OctantsFused() bool {
	return s.engine != nil && s.engine.fused
}
