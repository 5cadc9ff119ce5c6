package comm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"unsnap/internal/build"
	"unsnap/internal/core"
	"unsnap/internal/mesh"
	"unsnap/internal/sweep"
)

// This file is the pipelined protocol: the sweep itself spans the ranks.
// Every cross-rank face is declared to the downstream rank's solver as an
// external task-graph dependency (core.ExternalFace); the upstream rank's
// engine publishes the face's angular flux the moment the owning task
// completes, a per-edge channel carries it over, and a receiver goroutine
// on the downstream rank writes it into the solver's inflow buffer and
// resolves the waiting task — mid-sweep, in wavefront order. There is no
// bulk halo exchange and no lagged data: one global counter-driven task
// graph executes per sweep, so iteration counts and fluxes match the
// single-domain solver exactly.
//
// Message accounting replaces synchronisation. For every directed rank
// pair the per-sweep message count (quota) is fixed by the quadrature and
// the canonical face classification, and both sides derive it from the
// same mesh.RemoteFace metadata through core.ExternalInflow. Each edge's
// channel is FIFO and the publisher emits exactly one message per
// (ordinate, face) per sweep, so the receiver consumes its quota per
// sweep — gated on its own rank arming the sweep, which keeps a
// fast upstream rank from overwriting inflow slots the current sweep
// still reads while letting it run ahead into the next sweep under
// channel backpressure.
//
// The quota alone aligns sweeps only while no message is lost. Every
// message therefore carries the run's epoch and its sender's sweep index,
// and a receiver applies only messages stamped with the sweep it was
// gated for: when a transfer of sweep n never arrives, the first message
// of sweep n+1 shows up inside sweep n's quota, and the receiver fails the
// run with a retryable *SweepError naming the edge and the starved
// ordinate — at once, not at the watchdog's deadline, and before the
// stray could overwrite a slot a running task reads or fire a counter
// twice. Each inflow slot records the sweep it was last written in, so a
// second write within one sweep fails the same way.
//
// Cyclic meshes (AllowCycles): the same SCC condensation the
// single-domain solver runs (sweep.Condense, deduplicated over the bitmap
// classification) is computed once for the whole global mesh, and its lag
// set is distributed: intra-rank lagged couplings reach each rank solver
// through core.Config.CycleLag (they read the rank solver's lag store,
// the previous sweep's values on the cut faces), while cross-rank lagged
// couplings travel on a second per-edge channel whose consumption is
// shifted by one sweep — sweep n reads the values the upstream rank
// published during sweep n-1 (zero on the first sweep, matching the zero
// initial flux), which is exactly what the single-domain lag store read
// sees. Everything not on a cycle still streams mid-sweep, so cyclic
// meshes keep the fused cross-octant graph and rank overlap; because the
// condensation is a pure function of SCC membership and global element
// ids, no rank can break a cycle differently than the single-domain
// solver, and the 1e-12 flux parity carries over. (The 1e-12 parity statement is for a Run from fresh
// state. On a repeat Run every lagged coupling — cross-rank slot and
// per-rank lag store alike — deterministically restarts from the zero
// iterate, while a single-domain repeat Run reads its own final psi;
// both converge to the same fixed point, but the iterates differ.)
//
// Termination: every rank goroutine runs core.Iterate — the one source
// iteration the single-domain solver runs — with sweepOnce as its inner.
// Forced-iteration runs need no cross-rank agreement at all (every rank
// executes the same fixed schedule and the ranks overlap freely);
// convergence-gated runs pass Iterate a max-barrier (pipeRun.agree) as its
// reduction, so the ranks exchange one scalar per inner — the flux-change
// all-reduce any production sweeper performs — and each takes the
// identical decision from the identical maximum. The barrier knows nothing
// of inners, outers or tolerances.

// pipeEdgeDef is one directed rank pair with cross-rank transfers.
type pipeEdgeDef struct {
	from, to int
	stream   int // streamed messages per sweep (resolved mid-sweep)
	lag      int // lagged messages per sweep (consumed one sweep later)
}

// pipeMsg carries one (ordinate, face) transfer: all groups' nodal flux
// in the sender's face-node order; elem/face address the receiver's side.
// epoch names the run (attempt) and sweep the sending rank's sweep within
// it. The data buffer comes from the driver's message pool and is
// returned by the consuming receiver.
type pipeMsg struct {
	epoch, sweep  int
	a, elem, face int
	data          []float64 // [group][sender face node]
}

// lagDep is one lagged cross-rank dependency on the downstream rank:
// external face index, local element and ordinate (the receiver resolves
// it from zeroed slots on the first sweep of a run).
type lagDep struct {
	face, elem, a int
}

// pipelinedState is the protocol's build-time wiring.
type pipelinedState struct {
	edges  []pipeEdgeDef
	inOf   [][]int                // rank -> edge indices with to == rank
	outIdx []map[int]int          // rank -> peer rank -> edge index
	extIdx []map[mesh.FaceKey]int // rank -> face key -> External index

	// Cycle-aware routing (AllowCycles on a cyclic mesh; nil otherwise):
	// lagOut[r][i] is a per-ordinate bitset marking the publishes of
	// external face i of rank r that go to the lagged channel, and
	// lagResolve[ei] lists edge ei's downstream lagged dependencies.
	lagOut     [][][]uint64
	lagResolve [][]lagDep

	// pool recycles publish message buffers (nG*nF floats each): the
	// engine publishes one per (ordinate, face) per sweep, which at paper
	// scale is tens of thousands of short-lived allocations per inner
	// without it.
	pool   sync.Pool
	msgLen int

	run   *pipeRun // active run, nil otherwise (see runPipelined)
	epoch int      // runs started so far; stamps the active run's messages
}

func (ps *pipelinedState) getBuf() []float64 {
	if v := ps.pool.Get(); v != nil {
		return v.([]float64)
	}
	return make([]float64, ps.msgLen)
}

func (ps *pipelinedState) putBuf(b []float64) { ps.pool.Put(b) }

// isLagOut reports whether the publish of (external face i, ordinate a)
// by rank r is routed to the lagged channel.
func (ps *pipelinedState) isLagOut(r, i, a int) bool {
	lo := ps.lagOut
	if lo == nil || lo[r] == nil || lo[r][i] == nil {
		return false
	}
	return lo[r][i][a/64]&(1<<(a%64)) != 0
}

// buildPipelined condenses the global sweep topology, builds one
// external-coupled solver per rank (distributing the global lag decisions)
// and wires the publish hooks.
func (d *Driver) buildPipelined() error {
	// The global condensation is a pure function of (mesh, quadrature,
	// cycle order); through Rank.Cache it joins the artifact cache, so a
	// driver rebuilt on a hot mesh skips it entirely.
	lagSets, err := build.CachedGlobalLagSets(d.cfg.Rank.Cache, d.cfg.Mesh, d.re,
		d.cfg.Rank.Quad, d.cfg.Rank.CycleOrder, d.cfg.Rank.AllowCycles)
	if err != nil {
		return err
	}
	lagOf, anyLag := lagSets.Of, lagSets.AnyLag
	nRanks := len(d.part.Subs)
	ps := &pipelinedState{
		inOf:   make([][]int, nRanks),
		outIdx: make([]map[int]int, nRanks),
		extIdx: make([]map[mesh.FaceKey]int, nRanks),
		msgLen: d.nG * d.nF,
	}
	if anyLag {
		ps.lagOut = make([][][]uint64, nRanks)
	}
	d.pipe = ps

	type rawLag struct {
		from, to int
		dep      lagDep
	}
	var rawLags []rawLag
	streamQ := make(map[[2]int]int) // (from, to) -> streamed messages per sweep
	lagQ := make(map[[2]int]int)    // (from, to) -> lagged messages per sweep
	angles := d.cfg.Rank.Quad.Angles
	aw := (d.nA + 63) / 64
	for r := range d.part.Subs {
		sub := d.part.Subs[r]
		ps.extIdx[r] = make(map[mesh.FaceKey]int, len(d.remote[r]))
		for i, rf := range d.remote[r] {
			ps.extIdx[r][rf.Key] = i
			peer := d.part.Subs[rf.Ref.Rank]
			gMine := sub.Global[rf.Key.Elem]
			gPeer := peer.Global[rf.Ref.Elem]
			for a := range angles {
				if core.ExternalInflow(angles[a].Omega, rf.Normal, rf.Canonical) {
					// This rank is downstream of the face for ordinate a.
					if lagOf[a] != nil && lagOf[a][sweep.Edge{From: gPeer, To: gMine}] {
						lagQ[[2]int{rf.Ref.Rank, r}]++
						rawLags = append(rawLags, rawLag{from: rf.Ref.Rank, to: r,
							dep: lagDep{face: i, elem: rf.Key.Elem, a: a}})
					} else {
						streamQ[[2]int{rf.Ref.Rank, r}]++
					}
				} else if lagOf[a] != nil && lagOf[a][sweep.Edge{From: gMine, To: gPeer}] {
					// Upstream side of a lagged coupling: route the publish
					// to the lagged channel.
					if ps.lagOut[r] == nil {
						ps.lagOut[r] = make([][]uint64, len(d.remote[r]))
					}
					if ps.lagOut[r][i] == nil {
						ps.lagOut[r][i] = make([]uint64, aw)
					}
					ps.lagOut[r][i][a/64] |= 1 << (a % 64)
				}
			}
		}
		cfg := d.rankConfig(r)
		if d.cfg.Rank.AllowCycles {
			// Distribute the global condensation: a rank lags exactly the
			// intra-rank edges the single-domain solver would, looked up by
			// global element ids.
			subG := sub.Global
			cfg.CycleLag = func(a, from, to int) bool {
				ls := lagOf[a]
				return ls != nil && ls[sweep.Edge{From: subG[from], To: subG[to]}]
			}
			// The closure's decision content is fully named by the global
			// lag-set key plus this rank's place in the partition, so the
			// rank's build stays content-addressable (and cache-shareable
			// across drivers on the same mesh and grid).
			cfg.CycleLagKey = fmt.Sprintf("%s|p%dx%d|r%d", lagSets.Key, d.cfg.PY, d.cfg.PZ, r)
		}
		s, err := core.New(cfg)
		if err != nil {
			return fmt.Errorf("comm: building rank %d: %w", r, err)
		}
		d.solvers[r] = s
	}

	// Deterministic edge order: ascending receiver, then sender.
	for to := 0; to < nRanks; to++ {
		ps.outIdx[to] = make(map[int]int)
		for from := 0; from < nRanks; from++ {
			key := [2]int{from, to}
			if streamQ[key]+lagQ[key] > 0 {
				ps.inOf[to] = append(ps.inOf[to], len(ps.edges))
				ps.edges = append(ps.edges, pipeEdgeDef{from: from, to: to,
					stream: streamQ[key], lag: lagQ[key]})
			}
		}
	}
	for ei, ed := range ps.edges {
		ps.outIdx[ed.from][ed.to] = ei
	}
	ps.lagResolve = make([][]lagDep, len(ps.edges))
	for _, rl := range rawLags {
		ei := ps.outIdx[rl.from][rl.to]
		ps.lagResolve[ei] = append(ps.lagResolve[ei], rl.dep)
	}

	for r := range d.solvers {
		r := r
		d.solvers[r].SetPublish(func(a, e, f int) { d.publishFace(r, a, e, f) })
	}
	return nil
}

// publishFace is the engine's publish hook: gather the finished face flux
// and stream it to the downstream rank — on the edge's streamed channel,
// or on its lagged channel when the coupling was demoted by the global
// condensation (the downstream rank consumes those one sweep later).
// Called from worker goroutines mid-sweep; a full channel applies
// backpressure (the downstream rank is more than a sweep behind), an
// aborted run drops the message.
func (d *Driver) publishFace(rank, a, e, f int) {
	pr := d.pipe.run
	if pr == nil {
		return
	}
	key := mesh.FaceKey{Elem: e, Face: f}
	ref := d.part.Subs[rank].Remote[key]
	msg := pipeMsg{epoch: pr.epoch, sweep: pr.sweep[rank],
		a: a, elem: ref.Elem, face: ref.Face, data: d.pipe.getBuf()}
	d.gatherFace(d.solvers[rank], a, e, f, msg.data)
	ei := d.pipe.outIdx[rank][ref.Rank]
	lagged := d.pipe.isLagOut(rank, d.pipe.extIdx[rank][key], a)
	pr.tr.Send(ei, lagged, msg)
}

// pipeRun is the state of one Run invocation.
type pipeRun struct {
	d        *Driver
	n        int
	epoch    int           // this run's stamp on every message it sends
	tr       Transport     // per-edge message lanes (chanTransport, possibly fault-wrapped)
	gates    []chan int    // per edge: streamed-receiver go-ahead, the rank's sweep index once per sweep
	lagGates []chan int    // per edge: lagged-receiver go-ahead, likewise
	abort    chan struct{} // closed on first failure (or Close mid-run)
	done     chan struct{} // closed when the rank loops are over; stops receivers/watchers
	joined   chan struct{} // closed once aux has drained: what a concurrent Close waits for

	// sweep[r] is rank r's sweep index within the run: written by the
	// rank loop between sweeps, read by the rank's publishing workers.
	// wrote[r][i*nA+a] is one more than the sweep of rank r that last
	// filled the inflow slot of (external face i, ordinate a); each slot
	// belongs to exactly one receiver goroutine.
	sweep []int
	wrote [][]int32

	abortOnce sync.Once
	errMu     sync.Mutex
	firstErr  error

	// aux joins the run's helper goroutines (receivers, watchers, the
	// watchdog) before Run returns: a retry, degrade or Close right after
	// a failed Run must never race a receiver still draining its exit
	// path against the state it is about to tear down.
	aux sync.WaitGroup

	// Max-barrier state (convergence-gated runs only; see agree): the
	// round the ranks are currently arriving at, and how many have.
	barMu   sync.Mutex
	round   *barrierRound
	arrived int
}

// barrierRound is one round of the max-barrier: max is written under
// pipeRun.barMu by every arrival and read only after done is closed.
type barrierRound struct {
	max  float64
	done chan struct{}
}

// fail records the first error and releases every blocked participant.
func (pr *pipeRun) fail(err error) {
	pr.errMu.Lock()
	if pr.firstErr == nil {
		pr.firstErr = err
	}
	pr.errMu.Unlock()
	pr.abortOnce.Do(func() { close(pr.abort) })
}

func (pr *pipeRun) err() error {
	pr.errMu.Lock()
	defer pr.errMu.Unlock()
	return pr.firstErr
}

// applyMsg writes one received transfer into the solver's inflow slot
// (permuted into the receiving side's face-node order) during sweep n of
// the receiving rank, recycles the buffer and resolves the dependent task.
// It refuses — reporting false, slot and counter untouched — a slot
// already written this sweep.
func (pr *pipeRun) applyMsg(ei, n int, m pipeMsg) bool {
	d := pr.d
	ed := d.pipe.edges[ei]
	s := d.solvers[ed.to]
	idx := d.pipe.extIdx[ed.to][mesh.FaceKey{Elem: m.elem, Face: m.face}]
	wrote := &pr.wrote[ed.to][idx*d.nA+m.a]
	if *wrote == int32(n+1) {
		return false
	}
	*wrote = int32(n + 1)
	d.permuteInflow(s.ExternalInflowBuffer(idx, m.a), m.data, d.remote[ed.to][idx].Perm)
	d.pipe.putBuf(m.data)
	s.ResolveExternal(m.a, m.elem)
	return true
}

// receiver drains one lane of in-edge ei. Per sweep it waits for the
// owning rank to arm (the gate carries the rank's sweep index n), then
// consumes the lane's quota of messages stamped with the sweep it expects,
// writing each into the solver's inflow slot and resolving the dependent
// task. The streamed lane expects the sender's sweep n. The lagged lane
// runs one sweep behind: during sweep n it consumes what the upstream rank
// published in its sweep n-1, which is exactly the previous-iterate value
// the single-domain snapshot read sees. On the first sweep of a run the
// previous iterate is the zero initial flux — the slots were zeroed at run
// start — so the dependencies resolve immediately. The final sweep's
// lagged batch is intentionally never consumed (it has no next sweep);
// the 2x-quota channel buffer absorbs it.
func (pr *pipeRun) receiver(ei int, lagged bool) {
	d := pr.d
	ed := d.pipe.edges[ei]
	gate, quota := pr.gates[ei], ed.stream
	if lagged {
		gate, quota = pr.lagGates[ei], ed.lag
	}
	for {
		var n int
		select {
		case n = <-gate:
		case <-pr.done:
			return
		case <-pr.abort:
			return
		}
		want := n
		if lagged {
			if n == 0 {
				for _, ld := range d.pipe.lagResolve[ei] {
					d.solvers[ed.to].ResolveExternal(ld.a, ld.elem)
				}
				continue
			}
			want = n - 1
		}
		for got := 0; got < quota; {
			m, ok := pr.tr.Recv(ei, lagged)
			if !ok {
				return
			}
			if m.epoch != pr.epoch || m.sweep < want {
				// A stray of an abandoned attempt: not this sweep's data.
				d.pipe.putBuf(m.data)
				continue
			}
			if m.sweep == want && pr.applyMsg(ei, n, m) {
				got++
				continue
			}
			d.pipe.putBuf(m.data)
			a, elem, cause := m.a, m.elem, errTransferRepeated
			if m.sweep > want {
				// The lane is FIFO, so a later sweep's message inside this
				// sweep's quota means one of this sweep's was lost.
				a, elem = pr.firstMissing(ei, n, lagged)
				cause = errTransferLost
			}
			pr.fail(pr.laneError(ei, a, elem, cause))
			return
		}
	}
}

// firstMissing names the first transfer (ordinate, receiving element) of
// edge ei's lane that sweep n of the receiving rank has not been handed.
// It reads only the lane's own slots of pr.wrote, which no other
// goroutine writes.
func (pr *pipeRun) firstMissing(ei, n int, lagged bool) (a, elem int) {
	d := pr.d
	ed := d.pipe.edges[ei]
	lagDeps := make(map[[2]int]bool, len(d.pipe.lagResolve[ei]))
	for _, ld := range d.pipe.lagResolve[ei] {
		lagDeps[[2]int{ld.face, ld.a}] = true
	}
	angles := d.cfg.Rank.Quad.Angles
	for i, rf := range d.remote[ed.to] {
		if rf.Ref.Rank != ed.from {
			continue
		}
		for a := range angles {
			if core.ExternalInflow(angles[a].Omega, rf.Normal, rf.Canonical) &&
				lagDeps[[2]int{i, a}] == lagged && pr.wrote[ed.to][i*d.nA+a] != int32(n+1) {
				return a, rf.Key.Elem
			}
		}
	}
	return -1, -1
}

// laneError is the structured failure of a lane that broke the
// one-message-per-(ordinate, face)-per-sweep contract.
func (pr *pipeRun) laneError(ei, a, elem int, cause error) *SweepError {
	ed := pr.d.pipe.edges[ei]
	rem, pend := pr.d.solvers[ed.to].SweepProgress()
	return &SweepError{Rank: ed.to, Peer: ed.from, Ordinate: a, Elem: elem,
		Remaining: rem, Pending: pend, Cause: cause}
}

// sweepOnce runs one armed sweep of rank r: install the phase, signal the
// rank's receivers, join.
func (pr *pipeRun) sweepOnce(r int) (float64, error) {
	s := pr.d.solvers[r]
	n := pr.sweep[r]
	s.PrepareInner()
	if err := s.ArmSweep(); err != nil {
		return 0, err
	}
	for _, ei := range pr.d.pipe.inOf[r] {
		if pr.gates[ei] != nil {
			select {
			case pr.gates[ei] <- n:
			case <-pr.abort:
				// Receivers are gone; the watcher cancels the armed sweep.
			}
		}
		if pr.lagGates[ei] != nil {
			select {
			case pr.lagGates[ei] <- n:
			case <-pr.abort:
			}
		}
	}
	if err := s.FinishSweep(); err != nil {
		return 0, err
	}
	// The sweep is joined: no worker of this rank publishes any more.
	pr.sweep[r] = n + 1
	// FinishInner's acceleration is rank-local (a no-op under AccelNone).
	// With DSA on, the pipelined protocol's exact single-domain iterate
	// parity is intentionally traded for the rank-local correction — both
	// still converge to the same fixed point, since the correction
	// vanishes there.
	return s.FinishInner()
}

// agree is the max-barrier of a convergence-gated run, handed to every
// rank's core.Iterate as its reduction: each of the n ranks hands in one
// value per round and leaves with the maximum over all n. The last arrival
// opens the next round before releasing the others, so a fast rank's next
// value can never land in the round a slow rank is still leaving. A failed
// run releases every waiter with the run's error: a rank that dropped out
// of its iteration will never arrive.
func (pr *pipeRun) agree(v float64) (float64, error) {
	pr.barMu.Lock()
	rd := pr.round
	if v > rd.max {
		rd.max = v
	}
	if pr.arrived++; pr.arrived == pr.n {
		pr.arrived, pr.round = 0, &barrierRound{done: make(chan struct{})}
		pr.barMu.Unlock()
		close(rd.done)
		return rd.max, nil
	}
	pr.barMu.Unlock()
	select {
	case <-rd.done:
		return rd.max, nil
	case <-pr.abort:
		return 0, pr.err()
	}
}

// pipeRank is rank r's core.Stepper: the rank solver's own outer steps
// around sweepOnce as the inner. sweep is the wall time spent inside the
// rank's inners (armed to joined — which includes waiting on upstream
// data, the honest per-rank sweep cost of a pipelined run).
type pipeRank struct {
	*core.Solver
	pr    *pipeRun
	r     int
	sweep time.Duration
}

func (k *pipeRank) Inner() (float64, error) {
	t0 := time.Now()
	df, err := k.pr.sweepOnce(k.r)
	k.sweep += time.Since(t0)
	return df, err
}

// runPipelined executes one pipelined iteration. ctx cancellation and the
// configured deadline are enforced by a watchdog goroutine that fails the
// run — converting an overdue external dependency into a structured
// SweepError naming the stuck rank, edge, ordinate and remaining work —
// instead of letting blocked ranks hang forever.
func (d *Driver) runPipelined(ctx context.Context) (*Result, error) {
	pr := &pipeRun{
		d: d, n: len(d.solvers),
		abort:  make(chan struct{}),
		done:   make(chan struct{}),
		joined: make(chan struct{}),
		round:  &barrierRound{done: make(chan struct{})},
	}
	// The whole setup — abort registration, channel allocation, engine
	// construction — runs under the driver mutex: a Close arriving while
	// the run is starting up blocks until the registration exists and
	// then aborts it, instead of racing the engine builds and stopping
	// pools the run would immediately rebuild. (A Close that wins the
	// mutex before Run starts still closes an idle driver, as under the
	// lagged protocol.)
	d.mu.Lock()
	d.runAbort = func() { pr.fail(errDriverClosed) }
	d.runDone = pr.joined
	ct := &chanTransport{
		chans:    make([]chan pipeMsg, len(d.pipe.edges)),
		lagChans: make([]chan pipeMsg, len(d.pipe.edges)),
		abort:    pr.abort,
	}
	d.pipe.epoch++
	pr.epoch = d.pipe.epoch
	pr.sweep = make([]int, pr.n)
	pr.wrote = make([][]int32, pr.n)
	for r := range pr.wrote {
		pr.wrote[r] = make([]int32, len(d.remote[r])*d.nA)
	}
	pr.gates = make([]chan int, len(d.pipe.edges))
	pr.lagGates = make([]chan int, len(d.pipe.edges))
	for ei, ed := range d.pipe.edges {
		// Two sweeps of buffering: the upstream rank can complete a full
		// sweep ahead before publishes start to block (for the lagged
		// channel that headroom also absorbs the final sweep's batch,
		// which has no consumer).
		if ed.stream > 0 {
			ct.chans[ei] = make(chan pipeMsg, 2*ed.stream)
			pr.gates[ei] = make(chan int, 1)
		}
		if ed.lag > 0 {
			ct.lagChans[ei] = make(chan pipeMsg, 2*ed.lag)
			pr.lagGates[ei] = make(chan int, 1)
		}
	}
	pr.tr = Transport(ct)
	if d.inj != nil {
		pr.tr = newFaultTransport(ct, d.inj, d.pipe, pr.abort)
	}
	for ei, ed := range d.pipe.edges {
		// Lagged slots restart every run from the zero initial iterate,
		// the state a fresh solver's lag store holds.
		for _, ld := range d.pipe.lagResolve[ei] {
			buf := d.solvers[ed.to].ExternalInflowBuffer(ld.face, ld.a)
			for i := range buf {
				buf[i] = 0
			}
		}
	}
	for _, s := range d.solvers {
		// Keep intra-rank lagged couplings on the same per-Run restart
		// semantics as the cross-rank slots above (no-op when acyclic).
		s.ResetLagSnapshot()
		s.ResetSweepCancel()
		// Build the engines on this goroutine: the watchers and receivers
		// spawned below touch them concurrently with the rank loops, so
		// the lazy first-sweep construction would race.
		s.InitSweepEngine()
	}
	d.pipe.run = pr
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.runAbort, d.runDone = nil, nil
		d.mu.Unlock()
		d.pipe.run = nil
	}()

	// The deadline/cancellation watchdog: on expiry it captures the stuck
	// ranks' state into a structured SweepError and aborts the run — the
	// per-solver watchers below then cancel the armed sweeps, every
	// blocked sender, receiver and rank loop unwinds on pr.abort, and Run
	// returns the error instead of hanging on a message that will never
	// arrive. Exits promptly with the run in the non-failure case.
	pr.aux.Add(1)
	go func() {
		defer pr.aux.Done()
		var expire <-chan time.Time
		if d.cfg.Deadline > 0 {
			t := time.NewTimer(d.cfg.Deadline)
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-pr.done:
		case <-pr.abort:
		case <-ctx.Done():
			pr.fail(fmt.Errorf("comm: run cancelled: %w", ctx.Err()))
		case <-expire:
			pr.fail(d.sweepDeadlineError(d.cfg.Deadline))
		}
	}()
	for _, s := range d.solvers {
		pr.aux.Add(1)
		go func(s *core.Solver) {
			defer pr.aux.Done()
			select {
			case <-pr.abort:
				s.CancelSweep()
			case <-pr.done:
			}
		}(s)
	}
	for ei, ed := range d.pipe.edges {
		if ed.stream > 0 {
			pr.aux.Add(1)
			go func(ei int) { defer pr.aux.Done(); pr.receiver(ei, false) }(ei)
		}
		if ed.lag > 0 {
			pr.aux.Add(1)
			go func(ei int) { defer pr.aux.Done(); pr.receiver(ei, true) }(ei)
		}
	}
	// Every rank runs the one source iteration; a rank whose iteration
	// fails takes the run down with it, which releases its peers from the
	// barrier and (through the watchers) from their armed sweeps.
	ranks := make([]*core.Result, pr.n)
	var wg sync.WaitGroup
	for r := 0; r < pr.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rk := &pipeRank{Solver: d.solvers[r], pr: pr, r: r}
			cfg := d.cfg.Rank
			if r != 0 {
				cfg.Progress = nil // every rank iterates; rank 0 reports
			}
			res, err := core.Iterate(ctx, cfg, rk, pr.agree)
			if err != nil {
				pr.fail(fmt.Errorf("comm: rank %d: %w", r, err))
				return
			}
			res.SweepTime = rk.sweep
			ranks[r] = res
		}(r)
	}
	wg.Wait()
	close(pr.done)
	pr.aux.Wait()
	// Only now may a concurrent Close stop the solver pools: a receiver
	// still applying its last message resolves into a live engine.
	close(pr.joined)

	if err := pr.err(); err != nil {
		return nil, err
	}

	// All ranks execute the same inner sequence and, when gated, take the
	// same decisions, so rank 0's record is the run's — except the two
	// per-rank measurements. The ranks' sweeps overlap, so the slowest
	// rank's in-sweep time is the comparable analogue of the lagged
	// protocol's per-inner wall accumulation; and a forced run's flux
	// changes were never reduced, so the global per-inner change is the
	// elementwise max over the rank histories.
	res := &Result{Result: *ranks[0]}
	for _, rr := range ranks[1:] {
		if rr.SweepTime > res.SweepTime {
			res.SweepTime = rr.SweepTime
		}
		for i, v := range rr.DFHistory {
			if v > res.DFHistory[i] {
				res.DFHistory[i] = v
			}
		}
	}
	if res.Inners > 0 {
		res.FinalDF = res.DFHistory[res.Inners-1]
	}
	return res, nil
}
