package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineBaseline collects the workers of solvers earlier tests dropped
// without Close (their cleanups run some time after a cycle) and returns
// the settled goroutine count.
func goroutineBaseline() int {
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// wantGoroutines waits for the goroutine count to reach want: a stopped
// worker retires a hair after Close has joined it.
func wantGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != want {
		t.Fatalf("%s: %d goroutines, want %d", when, n, want)
	}
}

// TestPoolRounds drives the pool alone: every worker runs every round
// once, an open round (fork without join) runs the background share at
// once, halt joins the workers and the next round restarts them.
func TestPoolRounds(t *testing.T) {
	base := goroutineBaseline()
	p := newWorkerPool(4)
	var hits [4]atomic.Int64
	body := func(w int) { hits[w].Add(1) }
	for round := 1; round <= 100; round++ {
		p.run(body)
		for w := range hits {
			if got := hits[w].Load(); got != int64(round) {
				t.Fatalf("round %d: worker %d ran %d times", round, w, got)
			}
		}
	}
	wantGoroutines(t, base+3, "after 100 rounds")

	p.fork(body, nil)
	for w := 1; w < 4; w++ {
		for hits[w].Load() != 101 { // the background share needs no join
			runtime.Gosched()
		}
	}
	if got := hits[0].Load(); got != 100 {
		t.Fatalf("the caller's share ran before join (%d)", got)
	}
	p.join()
	if got := hits[0].Load(); got != 101 {
		t.Fatalf("join ran the caller's share %d times", got-100)
	}

	p.halt(true)
	p.halt(true) // idempotent
	wantGoroutines(t, base, "after halt")
	p.run(body)
	wantGoroutines(t, base+3, "restarted")
	if err := p.takeErr(); err != nil {
		t.Fatal(err)
	}
	p.halt(true)
	wantGoroutines(t, base, "after the second halt")

	var chunks [10]int
	for w := 0; w < 4; w++ {
		for i, hi := p.chunk(w, len(chunks)); i < hi; i++ {
			chunks[i]++
		}
	}
	for i, c := range chunks {
		if c != 1 {
			t.Fatalf("static chunks cover item %d %d times", i, c)
		}
	}
}

// TestPoolPanicContained pins the pool's one recover: a panic on the
// caller's slot or on a background worker becomes the round's error
// (value and stack), the abort hook runs, the peers finish and the pool
// runs the next round.
func TestPoolPanicContained(t *testing.T) {
	for _, bad := range []int{0, 2} {
		p := newWorkerPool(3)
		var aborted, ran atomic.Int64
		p.fork(func(w int) {
			if w == bad {
				panic("boom")
			}
			ran.Add(1)
		}, func() { aborted.Add(1) })
		p.join()
		err := p.takeErr()
		if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "parallel_test.go") {
			t.Fatalf("worker %d: panic not reported with value and stack: %v", bad, err)
		}
		if aborted.Load() != 1 || ran.Load() != 2 {
			t.Fatalf("worker %d: abort ran %d times, %d peers finished", bad, aborted.Load(), ran.Load())
		}
		if p.takeErr() != nil {
			t.Fatal("takeErr did not clear the error")
		}
		ran.Store(0)
		p.run(func(int) { ran.Add(1) })
		if ran.Load() != 3 || p.takeErr() != nil {
			t.Fatalf("worker %d: the round after a panic ran on %d workers", bad, ran.Load())
		}
		p.halt(true)
	}
}

// TestSweepPanicContained: a task that panics — on whichever worker
// reaches it first, with the others busy or parked — fails the sweep with
// an error instead of killing the process; the same solver sweeps again
// once its state is restored, a fresh one is unaffected, and Close leaves
// no goroutine behind. The panic is injected by poisoning state only the
// tasks read: with the effective cross sections gone, every task indexes
// a nil slice.
func TestSweepPanicContained(t *testing.T) {
	for _, scheme := range []Scheme{SchemeEngine, SchemeAEG} {
		for _, threads := range []int{1, 3} {
			base := goroutineBaseline()
			cfg := engineProblem(t)
			cfg.Scheme = scheme
			cfg.Threads = threads
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sigtEff, sigtRuns := s.sigtEff, s.sigtRuns
			s.sigtEff, s.sigtRuns = nil, nil
			s.ComputeOuterSource()
			s.PrepareInner()
			done := make(chan error, 1)
			go func() { done <- s.SweepAllAngles() }()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%v threads=%d: sweep hung on a panicking task", scheme, threads)
			}
			if err == nil || !strings.Contains(err.Error(), "index out of range") || !strings.Contains(err.Error(), "goroutine") {
				t.Fatalf("%v threads=%d: want the panic value and stack, got %v", scheme, threads, err)
			}
			if _, err := s.Run(); err == nil {
				t.Fatalf("%v threads=%d: Run over panicking tasks succeeded", scheme, threads)
			}

			s.sigtEff, s.sigtRuns = sigtEff, sigtRuns
			if _, err := s.Run(); err != nil {
				t.Fatalf("%v threads=%d: run after a contained panic: %v", scheme, threads, err)
			}
			fresh := engineProblem(t)
			fresh.Scheme = scheme
			fresh.Threads = threads
			f, err := New(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Run(); err != nil {
				t.Fatalf("%v threads=%d: fresh solver after a contained panic: %v", scheme, threads, err)
			}
			f.Close()
			s.Close()
			wantGoroutines(t, base, "after Close")
		}
	}
}

// sweepGoroutines counts the goroutines alive while one of p's rounds is
// in flight, sampling from a goroutine of its own until stop is closed:
// it returns the largest count seen and the number of samples taken. The
// sampler holds p.mu while it samples, so the round it sees stays in
// flight. Neither the sampler itself nor the finalizer goroutine is
// counted: the latter runs the runtime.AddCleanup of any solver the
// collector reclaims, and while it does it shows up in
// runtime.NumGoroutine.
func sweepGoroutines(p *workerPool, stop <-chan struct{}) <-chan [2]int {
	out := make(chan [2]int, 1)
	go func() {
		buf := make([]byte, 1<<20)
		peak, samples := 0, 0
		for {
			select {
			case <-stop:
				out <- [2]int{peak, samples}
				return
			default:
			}
			p.mu.Lock()
			if p.body != nil {
				dump := string(buf[:runtime.Stack(buf, true)])
				n := strings.Count(dump, "\n\ngoroutine ") - strings.Count(dump, "runtime.runfinq")
				peak = max(peak, n)
				samples++
			}
			p.mu.Unlock()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	return out
}

// TestGoroutineBudget pins what a solver parks: Threads-1 goroutines after
// a Run, under the engine and under a bucket scheme alike, none of them
// started per sweep or per bucket (sampled while the rounds run), none
// after Close.
func TestGoroutineBudget(t *testing.T) {
	for _, scheme := range []Scheme{SchemeEngine, SchemeAEG, SchemeAGe} {
		base := goroutineBaseline()
		cfg := engineProblem(t)
		cfg.Scheme = scheme
		cfg.Threads = 4
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// The artifact build's goroutines may still be returning: sample
		// once the count has settled.
		wantGoroutines(t, base+3, scheme.String()+" after Run")
		stop := make(chan struct{})
		sampled := sweepGoroutines(s.pool, stop)
		for runs := 0; runs < 3; runs++ {
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		got := <-sampled
		if got[1] == 0 {
			t.Fatalf("%v: no sample landed inside a round", scheme)
		}
		if got[0] != base+3 {
			t.Fatalf("%v: %d goroutines seen from inside a round, want %d", scheme, got[0], base+3)
		}
		s.Close()
		wantGoroutines(t, base, scheme.String()+" after Close")
	}
}

// TestStaticLoopsAllocFree holds the loops around the sweep to the sweep's
// own contract on a multi-worker team: in steady state a round of
// ComputeOuterSource, PrepareInner or storePrevStep allocates nothing.
func TestStaticLoopsAllocFree(t *testing.T) {
	cfg := timedepProblem(t)
	cfg.Scheme = SchemeEngine
	cfg.Threads = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"ComputeOuterSource": s.ComputeOuterSource,
		"PrepareInner":       s.PrepareInner,
		"storePrevStep":      s.storePrevStep,
	} {
		if avg := testing.AllocsPerRun(20, fn); avg != 0 {
			t.Errorf("%s allocates %.1f objects per call at 4 threads, want 0", name, avg)
		}
	}
}
