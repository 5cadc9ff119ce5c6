package core

import (
	"sync"
	"sync/atomic"

	"unsnap/internal/sweep"
)

// This file implements the sweep engine behind SchemeEngine. Instead of
// the legacy fork/join per schedule bucket per ordinate, the solver's
// workers (doc.go, "Worker pool and lifecycle") execute each octant of
// SweepAllAngles as one task graph:
//
//   - Counter-driven wavefronts: a task is all energy groups of one
//     (ordinate, element) pair. Workers pop ready tasks from per-worker
//     Chase-Lev work-stealing deques and, on completion, decrement the
//     remaining-upwind counters of the downwind tasks (sweep.Graph),
//     pushing the ones that reach zero. No bucket barriers.
//   - Angle-parallel execution: every ordinate of an octant is in flight
//     at once (their dependency graphs are independent), multiplying the
//     available parallelism by Quad.PerOctant on shallow-bucket meshes.
//   - Octant overlap: without a Boundary callback nothing couples the
//     octants inside one sweep, so the engine fuses all eight octants into
//     a single counter-driven phase — task ids span (octant, ordinate,
//     element) — removing the seven quiesce barriers and the per-octant
//     wavefront starvation behind the paper's Figure 3 strong-scaling
//     wall. Cyclic meshes and External faces stay fused (see
//     octantsFusable). A Boundary callback (reflective mirrors) runs
//     sequential octant phases, preserving the mirror-ordinate ordering.
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
// (every worker has left a phase before the next begins).
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

// ---- engine ----

// engine owns the scheduling state of the engine-backed schemes for one
// Solver: the per-ordinate task graphs, the whole-sweep schedule (initial
// remaining-upwind counters and seed lists over global task ids), the
// worker deques and the state of the one phase in flight. It owns no
// goroutines: a phase is a round of the solver's worker pool.
//
// Task ids are global across the whole sweep: task a*nE+e is all energy
// groups of (ordinate a, element e). Sequential octant phases execute the
// contiguous id slab of one octant; the fused phase executes all of them
// at once.
type engine struct {
	s      *Solver
	nw     int
	deques []*wsDeque
	graphs []*sweep.Graph // per angle, shared across angles of one topo

	// fused selects the cross-octant mode: one phase per sweep over all
	// nA*nE tasks instead of eight quiesced per-octant phases. Decided
	// once at build time (see Solver.octantsFusable). External solvers
	// always fuse (Config.External excludes a Boundary callback): streamed
	// resolutions address tasks of any octant, so an armed sweep must be
	// one phase, and a self-driven one resolves every slot of that phase
	// up front (resolveAll).
	fused bool

	// External-coupling schedule (Config.External only): extDeg[t] is the
	// number of streamed upwind faces folded into task t's initial
	// counter, totalExt their sum (one sweep's expected ResolveExternal
	// calls), and pubOff/pubFace the CSR lists of external faces each
	// task publishes on completion. armed marks a phase begun by ArmSweep
	// and not yet ended by FinishSweep (driver goroutine only).
	extDeg   []int32
	pubOff   []int32
	pubFace  []int32
	totalExt int64
	armed    bool

	// Immutable whole-sweep schedule: initCounts[a*nE+e] is the initial
	// remaining-upwind counter of task (a, e); octSeeds[o] lists octant
	// o's initially-ready tasks; allSeeds is their concatenation in
	// octant order (fused mode only).
	initCounts []int32
	octSeeds   [8][]int32
	allSeeds   []int32

	counts []int32 // working counters of the current phase

	// The phase in flight (an octant slab, or the whole fused sweep), reset
	// in place by begin so that a steady-state sweep, self-driven or armed,
	// allocates nothing. extPending counts the sweep's still-unresolved
	// external dependencies: the stall detector must not fire while data is
	// still in flight. runFn and abandonFn are the phase's round body and
	// abort hook, built once.
	seeds      []int32
	cursor     atomic.Int64
	remaining  atomic.Int64
	extPending atomic.Int64
	stalled    atomic.Bool // a worker detected a stalled phase
	runFn      func(w int)
	abandonFn  func()

	// Mid-phase park and wake: workers with nothing to do sleep on cond
	// (idle counts them), and goroutines outside the team — the comm
	// layer's receivers and watchdog — meet the phase here. active marks a
	// phase installed; inbox holds tasks made ready by ResolveExternal (a
	// foreign goroutine cannot push onto a worker's deque). idle is
	// updated, active and inbox accessed, under mu.
	mu     sync.Mutex
	cond   *sync.Cond
	idle   atomic.Int32
	active bool
	inbox  []int64
}

// newEngine builds the schedule of s's engine-backed sweeps.
func newEngine(s *Solver) *engine {
	per := s.cfg.Quad.PerOctant
	total := s.nA * s.nE
	e := &engine{s: s, nw: s.cfg.Threads, fused: s.octantsFusable()}
	e.cond = sync.NewCond(&e.mu)
	e.runFn = e.run
	e.abandonFn = func() { e.abandon(nil) }
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
	return e
}

// ensureEngine lazily builds the engine on the first engine-backed sweep
// (or the first after SetBoundary dropped it).
func (s *Solver) ensureEngine() *engine {
	if s.engine == nil {
		s.engine = newEngine(s)
	}
	return s.engine
}

// Close stops the solver's background workers and joins them. Without it
// they are only reclaimed when the garbage collector notices the solver is
// unreachable — fine for short-lived solvers, but a process that holds
// many solvers alive should Close the ones it is done sweeping with. The
// solver remains fully usable: state queries work, and a later sweep
// restarts the workers. Safe to call multiple times, including
// concurrently. (Close concurrent with an in-flight sweep remains the
// caller's responsibility — the comm driver aborts and joins its run
// first.)
func (s *Solver) Close() { s.pool.halt(true) }

// runSweep executes one full self-driven sweep: the single fused phase in
// cross-octant mode, with every External slot read as the caller left it,
// or eight sequential octant phases otherwise. A stalled phase aborts the
// remaining octants — the sweep is already failed, so their work would be
// wasted. Per-element solve errors do NOT abort (the legacy executors
// finish the sweep too).
func (e *engine) runSweep() {
	if e.fused {
		e.begin(0, len(e.counts), e.allSeeds, e.totalExt)
		e.resolveAll()
		e.end()
		return
	}
	per := e.s.cfg.Quad.PerOctant
	for o := 0; o < 8; o++ {
		e.begin(o*per*e.s.nE, (o+1)*per*e.s.nE, e.octSeeds[o], 0)
		if stalled := e.end(); stalled {
			return
		}
	}
}

// begin resets the phase state to the tasks with ids in [lo, hi), ext of
// whose dependencies are streamed, and forks it: the background workers
// start at once, the caller's share waits for end.
func (e *engine) begin(lo, hi int, seeds []int32, ext int64) {
	copy(e.counts[lo:hi], e.initCounts[lo:hi])
	for _, d := range e.deques {
		d.reset()
	}
	e.seeds = seeds
	e.cursor.Store(0)
	e.stalled.Store(false)
	e.remaining.Store(int64(hi - lo))
	e.extPending.Store(ext)
	e.mu.Lock()
	e.inbox = e.inbox[:0]
	e.active = true
	e.mu.Unlock()
	e.s.pool.fork(e.runFn, e.abandonFn)
}

// resolveAll resolves at once every external dependency of the fused
// phase in flight, as if each slot had just been streamed in; the inbox is
// sized for the tasks it releases, so nothing allocates.
func (e *engine) resolveAll() {
	if e.totalExt == 0 {
		return
	}
	e.mu.Lock()
	for t, d := range e.extDeg {
		if d > 0 && atomic.AddInt32(&e.counts[t], -d) == 0 {
			e.inbox = append(e.inbox, int64(t))
		}
	}
	e.extPending.Store(0)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// end works the phase as worker 0 until it completes, stalls or is
// abandoned, and waits for every background worker to leave it.
func (e *engine) end() (stalled bool) {
	e.s.pool.join()
	e.mu.Lock()
	e.active = false
	e.mu.Unlock()
	return e.stalled.Load()
}

// abandon fails the phase in flight, if any, with err (nil: the failure is
// already recorded) and releases all its workers.
func (e *engine) abandon(err error) {
	e.mu.Lock()
	if e.active {
		e.s.pool.record(err)
		e.remaining.Store(0)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// run is the per-worker phase loop: drain own deque, then the seed list,
// then steal, then the external inbox; park when nothing is ready and not
// done.
func (e *engine) run(w int) {
	own := e.deques[w]
	for e.remaining.Load() > 0 {
		t, ok := own.pop()
		if !ok {
			t, ok = e.takeSeed()
		}
		if !ok {
			t, ok = e.stealFrom(w)
		}
		if ok {
			e.exec(w, t)
			continue
		}
		e.mu.Lock()
		if t, ok = e.takeInbox(); ok {
			e.mu.Unlock()
			e.exec(w, t)
			continue
		}
		e.idle.Add(1)
		for !e.hasWork() && e.remaining.Load() > 0 {
			// Every worker (including the sweeping worker 0) is
			// parked here with tasks remaining and nothing visible.
			// If no external resolutions are in flight either, no one
			// holds a task, so nothing can ever be pushed — the phase
			// is stalled. Fail the sweep instead of deadlocking;
			// zeroing remaining releases the peers. With external
			// dependencies pending the workers simply sleep until the
			// comm layer injects the next resolved task.
			if int(e.idle.Load()) == e.nw && e.extPending.Load() == 0 {
				e.stalled.Store(true)
				e.s.pool.record(errEngineStalled)
				e.remaining.Store(0)
				e.cond.Broadcast()
				break
			}
			e.cond.Wait()
		}
		e.idle.Add(-1)
		e.mu.Unlock()
	}
}

// takeInbox pops one externally-resolved task; caller holds mu.
func (e *engine) takeInbox() (int64, bool) {
	n := len(e.inbox)
	if n == 0 {
		return 0, false
	}
	t := e.inbox[n-1]
	e.inbox = e.inbox[:n-1]
	return t, true
}

func (e *engine) takeSeed() (int64, bool) {
	i := e.cursor.Add(1) - 1
	if i >= int64(len(e.seeds)) {
		return 0, false
	}
	return int64(e.seeds[i]), true
}

func (e *engine) stealFrom(w int) (int64, bool) {
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
// external inbox or any deque. Parked workers re-check it under mu, which
// pairs with pushers taking mu to broadcast, so no wakeup is lost (the
// inbox is only ever read and written under that same mutex).
func (e *engine) hasWork() bool {
	if e.cursor.Load() < int64(len(e.seeds)) {
		return true
	}
	if len(e.inbox) > 0 {
		return true
	}
	for _, d := range e.deques {
		if d.size() > 0 {
			return true
		}
	}
	return false
}

// exec solves all groups of one task and releases its downwind tasks.
// Task ids are global, so the decode needs no phase context: the ordinate
// is t/nE and the element t%nE.
func (e *engine) exec(w int, t int64) {
	s := e.s
	nE := int64(s.nE)
	a := int(t / nE)
	el := int(t % nE)
	if err := s.solveElem(s.workers[w], a, el); err != nil {
		s.pool.record(err)
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
	// Wake parked peers for the pushed tasks, and everyone when the phase
	// has just completed.
	if done := e.remaining.Add(-1) == 0; done || pushed && e.idle.Load() > 0 {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// ---- deterministic flux reduction ----

// reduceFluxFromPsi folds the quadrature weights into the scalar flux
// (and, for P1 scattering, the current) from the freshly swept angular
// flux: phi += sum_a w_a psi_a, accumulated in fixed ordinate order for
// every node so the result is bitwise reproducible across runs and
// thread counts. Both layouts place psi of angle a at a*len(phi) plus
// the scalar-flux offset, so the reduction is a strided daxpy stream.
func (s *Solver) reduceFluxFromPsi() { s.pool.run(s.reduceRoundFn) }

// ---- octant fusion eligibility ----

// octantsFusable reports whether the engine may run all eight octants as
// one task graph. It requires no Boundary callback: a reflective mirror
// reads the current sweep's psi, so it observes the in-sweep octant order,
// which the fused phase does not preserve.
//
// Neither cycle lagging (AllowCycles) nor External faces pin the octant
// order: a lagged coupling reads the immutable previous-iterate snapshot,
// and an External slot holds one value for the whole sweep, so both read
// the same values whichever octant runs first. The deterministic
// reduceFluxFromPsi reduction makes the relaxed execution order
// bitwise-safe for everything else.
func (s *Solver) octantsFusable() bool { return s.cfg.Boundary == nil }

// OctantsFused reports whether the engine overlaps all eight octants in
// one task graph (diagnostics; meaningful after the first engine sweep).
func (s *Solver) OctantsFused() bool {
	return s.engine != nil && s.engine.fused
}
