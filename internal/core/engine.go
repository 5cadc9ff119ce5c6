package core

import (
	"sync"
	"sync/atomic"

	"unsnap/internal/fem"
	"unsnap/internal/sweep"
)

// This file implements the sweep engine behind SchemeEngine. Instead of
// the legacy fork/join per schedule bucket per ordinate, the solver's
// workers (doc.go, "Worker pool and lifecycle") execute the whole of
// SweepAllAngles as one task graph:
//
//   - Counter-driven wavefronts: a task is all energy groups of one
//     (ordinate, element) pair. Workers pop ready tasks from per-worker
//     Chase-Lev work-stealing deques and, on completion, decrement the
//     remaining-upwind counters of the downwind tasks (sweep.Graph),
//     pushing the ones that reach zero. No bucket barriers.
//   - One fused phase: task ids span (octant, ordinate, element), and
//     every ordinate of all eight octants is in flight at once (their
//     dependency graphs are independent), multiplying the available
//     parallelism on shallow-bucket meshes and removing the per-octant
//     quiesce barriers and wavefront starvation behind the paper's
//     Figure 3 strong-scaling wall. Nothing pins the octant order: a
//     lagged coupling reads the immutable previous-iterate snapshot, an
//     External slot holds one value for the whole sweep, and a reflective
//     face (Config.Reflect) reads its mirror ordinate's flux on the same
//     element, which newEngine turns into one more graph edge between the
//     two tasks (see mirOff).
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
// deque to the whole sweep's task count, so the buffer can never overflow
// or wrap onto live entries.
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
// remaining-upwind counters and seed list over global task ids), the
// worker deques and the state of the one phase in flight. It owns no
// goroutines: a phase is a round of the solver's worker pool.
//
// Task ids are global across the whole sweep: task a*nE+e is all energy
// groups of (ordinate a, element e), and one phase executes all of them.
// An armed sweep must be one phase (streamed resolutions address tasks of
// any octant), and a self-driven one resolves every External slot of that
// phase up front (resolveAll).
type engine struct {
	s      *Solver
	nw     int
	deques []*wsDeque
	graphs []*sweep.Graph // per angle, shared across angles of one topo

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

	// Reflective coupling (Config.Reflect only): mirDown[mirOff[t]:
	// mirOff[t+1]] lists the tasks task t releases besides its downwind
	// neighbours. A reflective inflow face of task (a, e) reads the mirror
	// ordinate ma's flux on the same element, so the pair is ordered from
	// the lower octant to the higher one: (ma, e) first when ma's octant
	// is earlier (the face reads this sweep's value), (a, e) first when it
	// is later (the face reads ma's value before ma's task overwrites it).
	// Edges only climb octants, so the fused graph stays acyclic.
	mirOff  []int32
	mirDown []int32

	// Immutable whole-sweep schedule: initCounts[a*nE+e] is the initial
	// remaining counter of task (a, e) (upwind neighbours, streamed faces
	// and lower-octant mirror partners); seeds lists the initially-ready
	// tasks in ordinate order.
	initCounts []int32
	seeds      []int32

	counts []int32 // working counters of the current phase

	// The phase in flight, reset in place by begin so that a steady-state
	// sweep, self-driven or armed, allocates nothing. cursor walks seeds;
	// extPending counts the sweep's still-unresolved external dependencies:
	// the stall detector must not fire while data is still in flight. runFn
	// and abandonFn are the phase's round body and abort hook, built once.
	cursor     atomic.Int64
	remaining  atomic.Int64
	extPending atomic.Int64
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
	total := s.nA * s.nE
	e := &engine{s: s, nw: s.cfg.Threads}
	e.cond = sync.NewCond(&e.mu)
	e.runFn = e.run
	e.abandonFn = func() { e.abandon(nil) }
	e.deques = make([]*wsDeque, e.nw)
	for w := range e.deques {
		e.deques[w] = newWSDeque(total)
	}
	e.counts = make([]int32, total)
	e.initCounts = make([]int32, total)
	e.graphs = make([]*sweep.Graph, s.nA)
	for a := range e.graphs {
		e.graphs[a] = s.topos[a].Graph
		copy(e.initCounts[a*s.nE:(a+1)*s.nE], e.graphs[a].Indeg)
	}
	if s.ext != nil {
		// Streamed upwind faces join the counters; tasks holding any are
		// not ready until ResolveExternal drains them.
		e.buildExternalSchedule(s)
		for t, d := range e.extDeg {
			e.initCounts[t] += d
		}
	}
	if s.cfg.Reflect != [3]bool{} {
		e.buildMirrorEdges(s)
	}
	for a, g := range e.graphs {
		for _, r := range g.Roots {
			if t := int32(a*s.nE) + r; e.initCounts[t] == 0 {
				e.seeds = append(e.seeds, t)
			}
		}
	}
	return e
}

// buildMirrorEdges adds one edge per (ordinate, reflective inflow face)
// between the task and its mirror ordinate's task on the same element,
// from the lower octant to the higher (see mirOff), and folds the edges
// into the initial counters. Ordinates are numbered octant by octant, so
// the lower octant is the lower ordinate.
func (e *engine) buildMirrorEdges(s *Solver) {
	nT := s.nA * s.nE
	var from, to []int32
	for a := 0; a < s.nA; a++ {
		t := s.topos[a]
		for el := 0; el < s.nE; el++ {
			for f := 0; f < fem.NumFaces; f++ {
				d := fem.FaceDim(f)
				if !s.cfg.Reflect[d] || s.cfg.Mesh.Elems[el].Faces[f].Neighbor >= 0 || !t.IsInflow(el, f) {
					continue
				}
				lo, hi := a, s.cfg.Quad.MirrorAngle(a, d)
				if hi < lo {
					lo, hi = hi, lo
				}
				from = append(from, int32(lo*s.nE+el))
				to = append(to, int32(hi*s.nE+el))
			}
		}
	}
	e.mirOff = make([]int32, nT+1)
	for _, t := range from {
		e.mirOff[t+1]++
	}
	for t := 0; t < nT; t++ {
		e.mirOff[t+1] += e.mirOff[t]
	}
	e.mirDown = make([]int32, len(to))
	fill := append([]int32(nil), e.mirOff[:nT]...)
	for i, t := range from {
		e.mirDown[fill[t]] = to[i]
		fill[t]++
		e.initCounts[to[i]]++
	}
}

// ensureEngine lazily builds the engine on the first engine-backed sweep.
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

// runSweep executes one full self-driven sweep as the one fused phase,
// with every External slot read as the caller left it. Per-element solve
// errors do NOT abort the phase (the legacy executors finish the sweep
// too).
func (e *engine) runSweep() {
	e.begin()
	e.resolveAll()
	e.end()
}

// begin resets the phase state to the whole sweep, totalExt of whose
// dependencies are streamed, and forks it: the background workers start
// at once, the caller's share waits for end.
func (e *engine) begin() {
	copy(e.counts, e.initCounts)
	for _, d := range e.deques {
		d.reset()
	}
	e.cursor.Store(0)
	e.remaining.Store(int64(len(e.counts)))
	e.extPending.Store(e.totalExt)
	e.mu.Lock()
	e.inbox = e.inbox[:0]
	e.active = true
	e.mu.Unlock()
	e.s.pool.fork(e.runFn, e.abandonFn)
}

// resolveAll resolves at once every external dependency of the phase in
// flight, as if each slot had just been streamed in; the inbox is
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
func (e *engine) end() {
	e.s.pool.join()
	e.mu.Lock()
	e.active = false
	e.mu.Unlock()
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
	if e.mirOff != nil {
		for _, d := range e.mirDown[e.mirOff[t]:e.mirOff[t+1]] {
			if atomic.AddInt32(&e.counts[d], -1) == 0 {
				own.push(int64(d))
				pushed = true
			}
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
// thread counts. Where psi of angle a sits at a*len(phi) plus the
// scalar-flux offset (the bucket layouts, and LayoutLanes with one
// group) the reduction is a strided daxpy stream; under LayoutLanes with
// several groups it goes element by element through worker scratch
// (reduceElem), with the same sum per entry.
func (s *Solver) reduceFluxFromPsi() { s.pool.run(s.reduceRoundFn) }
