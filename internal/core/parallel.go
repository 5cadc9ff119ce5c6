package core

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// workerPool is the solver's one team of workers, the analogue of the
// persistent OpenMP team every parallel region of the paper's solver runs
// on: n-1 parked goroutines plus the caller as worker 0. See doc.go,
// "Worker pool and lifecycle", for the contract.
type workerPool struct {
	n    int // team size, the caller included
	mu   sync.Mutex
	cond *sync.Cond

	// The round in flight (under mu; nil between rounds, so a parked
	// worker reaches nothing of the solver): every worker runs body(w) once;
	// abort, when non-nil, releases workers the body may have parked after
	// one of them panicked.
	body  func(w int)
	abort func()
	seq   uint64 // bumped by every fork
	busy  int    // background workers that have not left the round
	live  int    // background goroutines started and not yet returned
	stop  bool

	err error // first error recorded since the last takeErr
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{n: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// fork installs a round and returns at once: the background workers start
// on body immediately (the first fork, or the first after close, starts
// them). body must be a func value that outlives the call site if the
// round is to allocate nothing. Rounds do not nest: no body may reach
// another fork.
func (p *workerPool) fork(body func(w int), abort func()) {
	p.mu.Lock()
	if p.live == 0 {
		p.stop = false
		for w := 1; w < p.n; w++ {
			p.live++
			go p.work(w)
		}
	}
	p.body, p.abort = body, abort
	p.seq++
	p.busy = p.n - 1
	p.cond.Broadcast()
	p.mu.Unlock()
}

// join runs the caller's share of the forked round as worker 0 and waits
// for every background worker to leave it.
func (p *workerPool) join() {
	p.guard(0)
	p.mu.Lock()
	for p.busy > 0 {
		p.cond.Wait()
	}
	p.body, p.abort = nil, nil
	p.mu.Unlock()
}

func (p *workerPool) run(body func(w int)) {
	p.fork(body, nil)
	p.join()
}

// chunk is worker w's static share [lo, hi) of n items (OpenMP's
// schedule(static)). The boundaries are part of the thread-count
// determinism pin of the source pass and the flux reduction.
func (p *workerPool) chunk(w, n int) (lo, hi int) { return w * n / p.n, (w + 1) * n / p.n }

// each runs fn(w, i) for every i in [0, n), statically chunked over the
// team. The round closure is built per call: for the loops outside the
// zero-allocation contract (the bucket schemes, the eager factor fill).
func (p *workerPool) each(n int, fn func(w, i int)) {
	p.run(func(w int) {
		for i, hi := p.chunk(w, n); i < hi; i++ {
			fn(w, i)
		}
	})
}

func (p *workerPool) work(w int) {
	// Rounds are told apart by sequence number, not by keeping the body: a
	// parked worker must hold nothing of the finished round.
	var seen uint64
	p.mu.Lock()
	for {
		for p.seq == seen && !p.stop {
			p.cond.Wait()
		}
		if p.seq == seen { // stopped, and no round is owed
			p.live--
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		seen = p.seq
		p.mu.Unlock()
		p.guard(w)
		p.mu.Lock()
		if p.busy--; p.busy == 0 {
			p.cond.Broadcast()
		}
	}
}

// guard runs the round's body as worker w and contains a panic in it: the
// panic becomes the round's error and the abort hook lets the peers leave.
func (p *workerPool) guard(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.record(fmt.Errorf("core: panic on sweep worker %d: %v\n%s", w, r, debug.Stack()))
			if p.abort != nil {
				p.abort()
			}
		}
	}()
	p.body(w)
}

// record keeps the first error of a sweep (a task's solve failure, a
// stall, a cancel, a contained panic); takeErr hands it over and clears it.
func (p *workerPool) record(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *workerPool) takeErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.err
	p.err = nil
	return err
}

// halt tells the background workers to return; with wait it also joins
// them (Close), without it returns at once (the GC path must not block
// the cleanup goroutine). The pool must be between rounds.
func (p *workerPool) halt(wait bool) {
	p.mu.Lock()
	p.stop = true
	p.cond.Broadcast()
	for wait && p.live > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}
