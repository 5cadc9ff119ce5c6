package core

import (
	"runtime"
	"sync"
)

// parallelFor runs fn(worker, i) for i in [0, n) over a pool of `workers`
// goroutines with static chunked distribution, the Go analogue of an
// OpenMP `parallel for schedule(static)`. Worker ids index per-worker
// scratch. With one worker (or one item) it runs inline.
func parallelFor(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(w, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// forkJoin is a persistent fork-join pool for the per-sweep loops that
// run between task phases (source preparation, flux reduction). Unlike
// parallelFor it spawns its workers once: every `go func` statement
// heap-allocates its closure, so spawning per call would put a few
// allocations back into the steady-state sweep that the task bodies
// worked to eliminate (pinned by TestSweepAllocFree).
type forkJoin struct {
	// body is the current round's work, set by run before the workers are
	// released and cleared when the round ends; the channel send orders the
	// write before each worker's read, and wg.Wait orders the reads before
	// run returns. A parked worker holds fj, so a body left in place would
	// root whatever its closure captures — the Solver — for as long as the
	// goroutine lives.
	body  func(w int)
	start []chan struct{}
	wg    sync.WaitGroup
	quit  chan struct{}
	// cleanup is the GC-path stop registered by newForkJoin; close cancels
	// it, as engine.shutdown does for the engine pool's.
	cleanup runtime.Cleanup
}

// newForkJoin starts workers-1 parked goroutines (the caller acts as
// worker 0) and registers a runtime cleanup that releases them when owner
// becomes unreachable without a close. The goroutines hold no reference
// to owner between rounds (see body), so that cleanup can fire.
func newForkJoin(owner *Solver, workers int) *forkJoin {
	fj := &forkJoin{quit: make(chan struct{})}
	if workers > 1 {
		fj.start = make([]chan struct{}, workers-1)
	}
	quit := fj.quit
	for i := range fj.start {
		c := make(chan struct{}, 1)
		fj.start[i] = c
		w := i + 1
		go func() {
			for {
				select {
				case <-c:
					fj.body(w)
					fj.wg.Done()
				case <-quit:
					return
				}
			}
		}()
	}
	fj.cleanup = runtime.AddCleanup(owner, func(q chan struct{}) { close(q) }, quit)
	return fj
}

// run executes body(w) on every worker (0 on the caller) and returns when
// all have finished. body must be a persistent func value — a fresh
// closure literal here would allocate per call, defeating the pool.
func (fj *forkJoin) run(body func(w int)) {
	if fj == nil || len(fj.start) == 0 {
		body(0)
		return
	}
	fj.body = body
	fj.wg.Add(len(fj.start))
	for _, c := range fj.start {
		c <- struct{}{}
	}
	body(0)
	fj.wg.Wait()
	fj.body = nil
}

// close releases the parked workers; the pool must be idle. (Solver.Close
// serialises callers and drops its pool reference, so close runs once.)
func (fj *forkJoin) close() {
	if fj != nil && fj.quit != nil {
		fj.cleanup.Stop() // explicit stop supersedes the GC-path registration
		close(fj.quit)
		fj.quit = nil
	}
}
