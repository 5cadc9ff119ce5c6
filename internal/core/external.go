package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"unsnap/internal/build"
	"unsnap/internal/fem"
)

// This file implements the solver side of the cross-rank coupling:
// subdomain-boundary faces declared in Config.External read their upwind
// angular flux from per-(face, ordinate) inflow slots
// (ExternalInflowBuffer) that the comm driver fills from a peer rank. A
// self-driven sweep (SweepAllAngles: lagged block Jacobi) reads the slots
// as the caller left them. An armed sweep (ArmSweep + FinishSweep:
// pipelined) holds every slot as a latent dependency of the engine's task
// graph: the driver streams flux in and resolves the matching task
// counters (ResolveExternal) as peers publish it mid-sweep, and the engine
// publishes this rank's outflow through the SetPublish hook the moment the
// owning task completes — so a whole partitioned mesh runs as one
// cross-rank task graph with no bulk-synchronous exchange step.

// ExternalFace declares one subdomain-boundary face fed by a peer rank's
// flux. Normal and Canonical carry the pair's shared classification (see
// mesh.RemoteFace): both sides evaluate ExternalInflow on the same
// canonical normal, so for every ordinate exactly one side treats the face
// as upwind (a task-graph dependency) and the other as downwind (a
// publish), mirroring the single-domain rule that classifies every
// interior face from its lower-element side. The type itself lives in the
// build layer (the declarations shape the sweep topology and join the
// artifact cache key); this alias keeps the solver API self-contained.
type ExternalFace = build.ExternalFace

// ExternalInflow is the shared upwind classification of an external face:
// it reports whether the side described by canonical is downwind of the
// face (receives inflow) for ordinate direction om. The comm layer uses
// the same function to size its per-edge message quotas, so driver and
// engine can never disagree about which transfers exist.
func ExternalInflow(om, normal [3]float64, canonical bool) bool {
	return build.ExternalInflow(om, normal, canonical)
}

// errSweepCancelled reports a sweep torn down by CancelSweep before all
// tasks completed (the comm driver aborting a partitioned run).
var errSweepCancelled = errors.New("core: sweep cancelled")

// IsSweepCancelled reports whether err is the CancelSweep abort error.
func IsSweepCancelled(err error) bool { return errors.Is(err, errSweepCancelled) }

// extState is the solver-side storage of the cross-rank coupling.
type extState struct {
	faces   []ExternalFace
	faceIdx []int32 // elem*NumFaces+face -> index into faces, or -1
	// data holds the inflow slots, laid out
	// [face][(angle*nG+group)*NF + faceNode]. Each (face, angle) slot has
	// exactly one writer per sweep — the exchange before a self-driven
	// sweep, or the comm receiver before ResolveExternal in an armed one —
	// and is read only by the task that depends on it.
	data    []float64
	publish func(angle, elem, face int)
}

// buildExternal indexes Config.External; called from New before the sweep
// topologies are classified (classification consults faceIdx).
func (s *Solver) buildExternal() {
	if s.cfg.External == nil {
		return
	}
	ext := &extState{
		faces:   s.cfg.External,
		faceIdx: make([]int32, s.nE*fem.NumFaces),
	}
	for i := range ext.faceIdx {
		ext.faceIdx[i] = -1
	}
	for i, ef := range ext.faces {
		ext.faceIdx[ef.Elem*fem.NumFaces+ef.Face] = int32(i)
	}
	ext.data = make([]float64, len(ext.faces)*s.nA*s.nG*s.re.NF)
	s.ext = ext
}

// SetPublish installs the boundary-outflow hook: fn is called from worker
// goroutines, mid-sweep, once per (ordinate, external face) the moment the
// task owning the face completes — the face's nodal angular flux is final
// and may be read via PsiFaceValues. A nil hook drops the publishes
// (useful in tests); partitioned runs must install one before the first
// sweep, and must not change it while a sweep is armed.
func (s *Solver) SetPublish(fn func(angle, elem, face int)) {
	if s.ext != nil {
		s.ext.publish = fn
	}
}

// ExternalInflowBuffer returns the inflow slot of (external face index,
// angle): nG*NF values ordered group-major, face nodes like
// fem.RefElement.FaceNodes[face]. The caller fills it with the upwind
// nodal flux (already permuted into this side's face-node order) before
// a self-driven sweep, or before resolving the dependency of an armed one.
func (s *Solver) ExternalInflowBuffer(face, angle int) []float64 {
	nf := s.re.NF
	off := (face*s.nA + angle) * s.nG * nf
	return s.ext.data[off : off+s.nG*nf]
}

// ResolveExternal marks one external upwind face of ordinate angle on
// element elem resolved: its streamed inflow is in place and will not
// change for the rest of the sweep. It counts down the task of the angle
// set holding angle. When the last dependency of the task (external or
// in-rank upwind, of any of its ordinates) resolves, the task is injected into the running engine
// and a parked worker is woken. Must only be called between ArmSweep and
// the completion of FinishSweep, after the matching ExternalInflowBuffer
// was filled; it is safe to call from any goroutine.
func (s *Solver) ResolveExternal(angle, elem int) {
	eng := s.engine
	t := int64(s.setOf[angle])*int64(s.nE) + int64(elem)
	ready := atomic.AddInt32(&eng.counts[t], -1) == 0
	eng.mu.Lock()
	if eng.active {
		if ready {
			eng.inbox = append(eng.inbox, t)
		}
		eng.extPending.Add(-1)
		eng.cond.Broadcast()
	}
	eng.mu.Unlock()
}

// ArmSweep begins one whole-sweep engine phase over the fused
// cross-octant task graph and returns immediately: background workers
// start on the internally-ready tasks at once, and ResolveExternal calls
// may land from other goroutines from this point on. The caller signals
// its receivers after ArmSweep returns and then joins the sweep with
// FinishSweep. Only valid with Config.External and an engine-backed
// scheme (a bucket executor cannot hold a latent dependency).
func (s *Solver) ArmSweep() error {
	if s.ext == nil {
		return fmt.Errorf("core: ArmSweep requires Config.External (use SweepAllAngles)")
	}
	if !s.cfg.Scheme.EngineBacked() {
		return fmt.Errorf("core: ArmSweep requires an engine-backed scheme, not %v (use SweepAllAngles)", s.cfg.Scheme)
	}
	if s.cancelled.Load() {
		return errSweepCancelled
	}
	eng := s.ensureEngine()
	if eng.armed {
		return fmt.Errorf("core: ArmSweep called with a sweep already armed")
	}
	if err := s.fc.ensureMapped(s); err != nil {
		return err
	}
	eng.begin()
	eng.armed = true
	if s.cancelled.Load() {
		// CancelSweep raced with the install and may have missed the phase;
		// cancel it ourselves so FinishSweep cannot wait on peers that are
		// already gone.
		eng.abandon(errSweepCancelled)
	}
	return nil
}

// FinishSweep joins the sweep armed by ArmSweep: the calling goroutine
// works as worker 0 until every task has completed (or the sweep is
// cancelled), quiesces the pool, reduces the scalar flux from psi and
// refills the lag store from it for the next sweep. It returns the first
// per-element solve error, errSweepCancelled after CancelSweep, or the
// stall error if the cross-rank dependencies can never resolve.
func (s *Solver) FinishSweep() error {
	eng := s.engine
	if eng == nil || !eng.armed {
		return fmt.Errorf("core: FinishSweep without a matching ArmSweep")
	}
	eng.armed = false
	eng.end()
	s.reduceFluxFromPsi()
	s.refillLagStore()
	s.flushPhaseTimes()
	return s.pool.takeErr()
}

// CancelSweep aborts the armed sweep (if any) and makes every future
// ArmSweep fail with errSweepCancelled until ResetSweepCancel: workers
// abandon the remaining tasks, parked workers wake, and FinishSweep
// returns promptly. The comm driver uses it to unwind all ranks of a
// partitioned run once one rank fails — without it, peers would wait
// forever on publishes that will never arrive. Safe to call from any
// goroutine, any number of times, in any sweep state.
func (s *Solver) CancelSweep() {
	s.cancelled.Store(true)
	if eng := s.engine; eng != nil {
		eng.abandon(errSweepCancelled)
	}
}

// ResetSweepCancel re-arms a solver after CancelSweep (the start of a
// fresh partitioned run).
func (s *Solver) ResetSweepCancel() { s.cancelled.Store(false) }

// InitSweepEngine eagerly builds the engine (normally built lazily on the
// first sweep). The pipelined driver calls it before spawning a run's
// goroutines so that CancelSweep and ResolveExternal — which run on
// watcher and receiver goroutines — never observe the engine mid-
// construction. A no-op for non-engine schemes or an already-built engine.
func (s *Solver) InitSweepEngine() {
	if s.cfg.Scheme.EngineBacked() {
		s.ensureEngine()
	}
}

// SweepProgress reports the phase in flight's unfinished task count and
// its unresolved streamed-dependency count (zeroes when none is
// installed). Safe from any goroutine; the comm driver's deadline
// watchdog uses it to name how much work a stuck rank still holds.
func (s *Solver) SweepProgress() (remaining, extPending int64) {
	eng := s.engine
	if eng == nil {
		return 0, 0
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if !eng.active {
		return 0, 0
	}
	return eng.remaining.Load(), eng.extPending.Load()
}

// FirstBlockedExternal scans the phase in flight for the first task that
// both depends on a streamed cross-rank face and has not fired, returning
// its (first ordinate, local element). It is a diagnostic for the deadline
// watchdog — the task it names is blocked on (at least transitively) an
// external resolution that never arrived. The scan runs under the engine
// mutex with atomic counter reads: begin's non-atomic counter reset
// happens strictly before the phase is installed, so a scan that observes
// one races only with the workers' atomic decrements.
func (s *Solver) FirstBlockedExternal() (angle, elem int, ok bool) {
	eng := s.engine
	if eng == nil || eng.extDeg == nil {
		return 0, 0, false
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if !eng.active {
		return 0, 0, false
	}
	for t := range eng.extDeg {
		if eng.extDeg[t] > 0 && atomic.LoadInt32(&eng.counts[t]) > 0 {
			return int(s.sets[t/s.nE].a0), t % s.nE, true
		}
	}
	return 0, 0, false
}

// buildExternalSchedule derives the engine-side coupling tables from the
// per-set classifications: extDeg[t] counts the external upwind
// (ordinate, face) slots of task t (folded into the initial
// remaining-upwind counters, so externally-blocked tasks are simply not
// ready until ResolveExternal says so; every ordinate of a set has the
// set's classification), and pubOff/pubFace list, per task, the external
// faces to publish, for each of its ordinates, on completion.
func (e *engine) buildExternalSchedule(s *Solver) {
	nT := len(s.sets) * s.nE
	e.extDeg = make([]int32, nT)
	pubCount := make([]int32, nT)
	for k, as := range s.sets {
		t := s.topos[as.a0]
		base := k * s.nE
		for _, ef := range s.ext.faces {
			if t.IsInflow(ef.Elem, ef.Face) {
				e.extDeg[base+ef.Elem] += as.s
				e.totalExt += int64(as.s)
			} else {
				pubCount[base+ef.Elem]++
			}
		}
	}
	// Every externally-blocked task enters the inbox at most once a sweep.
	blocked := 0
	for _, d := range e.extDeg {
		if d > 0 {
			blocked++
		}
	}
	e.inbox = make([]int64, 0, blocked)
	e.pubOff = make([]int32, nT+1)
	for i := 0; i < nT; i++ {
		e.pubOff[i+1] = e.pubOff[i] + pubCount[i]
	}
	e.pubFace = make([]int32, e.pubOff[nT])
	fill := make([]int32, nT)
	copy(fill, e.pubOff[:nT])
	for k, as := range s.sets {
		t := s.topos[as.a0]
		base := k * s.nE
		for i, ef := range s.ext.faces {
			if !t.IsInflow(ef.Elem, ef.Face) {
				tid := base + ef.Elem
				e.pubFace[fill[tid]] = int32(i)
				fill[tid]++
			}
		}
	}
}
