package build

import "sync"

// parallelFor runs fn(worker, i) for i in [0, n) over a pool of `workers`
// goroutines with static chunked distribution, the Go analogue of an
// OpenMP `parallel for schedule(static)`. Worker ids index per-worker
// scratch. With one worker (or one item) it runs inline. It spawns per
// call: the build runs once per artifact and keeps no team.
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
