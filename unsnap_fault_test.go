package unsnap

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

// settleFacadeGoroutines flushes GC cleanups of earlier tests' unclosed
// solvers and returns the settled goroutine count.
func settleFacadeGoroutines() int {
	runtime.GC()
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestFacadeOptionsValidation pins the facade-level rejection of
// failure-domain option combinations that cannot work.
func TestFacadeOptionsValidation(t *testing.T) {
	p := smallProblem()
	if _, err := NewSolver(p, Options{Fault: &FaultSchedule{}}); err == nil {
		t.Fatal("single-domain solver must reject fault injection")
	}
	if _, err := NewSolver(p, Options{FailurePolicy: FailurePolicy{Mode: FailRetry, MaxRetries: 1}}); err == nil {
		t.Fatal("single-domain solver must reject failure policies")
	}
	if _, err := NewSolver(p, Options{Deadline: -time.Second}); err == nil {
		t.Fatal("negative deadline must be rejected")
	}
	if _, err := NewSolver(p, Options{Epsi: math.NaN()}); err == nil {
		t.Fatal("NaN epsi must be rejected")
	}
	if _, err := NewDistributed(p, Options{Deadline: -time.Second}, 1, 1); err == nil {
		t.Fatal("negative deadline must be rejected by NewDistributed")
	}
	// Fault injection needs the pipelined protocol (comm-level rule,
	// surfaced through the facade).
	if _, err := NewDistributed(p, Options{Fault: &FaultSchedule{}}, 1, 1); err == nil {
		t.Fatal("fault injection under the lagged protocol must be rejected")
	}
}

// TestProblemValidateNonFinite pins the NaN/Inf hardening of
// Problem.Validate.
func TestProblemValidateNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Problem)
	}{
		{"NaN LX", func(p *Problem) { p.LX = math.NaN() }},
		{"zero LY", func(p *Problem) { p.LY = 0 }},
		{"Inf LZ", func(p *Problem) { p.LZ = math.Inf(1) }},
		{"NaN twist", func(p *Problem) { p.Twist = math.NaN() }},
		{"Inf twist", func(p *Problem) { p.Twist = math.Inf(-1) }},
		{"NaN periods", func(p *Problem) { p.TwistPeriods = math.NaN() }},
		{"negative periods", func(p *Problem) { p.TwistPeriods = -1 }},
	} {
		p := DefaultProblem()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

// TestSolverDeadline pins the single-domain half of the deadline
// contract: Options.Deadline composes into the run's context and an
// expired deadline surfaces as context.DeadlineExceeded between inners
// instead of finishing the solve.
func TestSolverDeadline(t *testing.T) {
	s, err := NewSolver(smallProblem(), Options{
		Deadline: time.Nanosecond, MaxInners: 50, MaxOuters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline exceeded, got %v", err)
	}
	// An external context routes the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s2, err := NewSolver(smallProblem(), Options{MaxInners: 50, MaxOuters: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected cancellation, got %v", err)
	}
}

// TestTimeDependentDeadline pins that Options.Deadline bounds
// RunTimeDependent too: every time step goes through the same iteration
// RunContext drives, under one deadline across the whole march.
func TestTimeDependentDeadline(t *testing.T) {
	s, err := NewSolver(smallProblem(), Options{
		Deadline: time.Nanosecond, TimeSteps: 3, TimeDt: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunTimeDependent(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline exceeded, got %v", err)
	}
}

// TestDistributedFaultStallFacade extends the goroutine-leak regression
// to the injected-fault path through the public facade: a rank stall
// fails the pipelined sweep within the deadline with a structured
// *SweepError, a second Run replays the identical failure (the injector
// rewinds per Run), and Close leaves nothing behind.
func TestDistributedFaultStallFacade(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	before := settleFacadeGoroutines()
	d, err := NewDistributed(p, Options{
		Scheme: Engine, Threads: 2, Protocol: CommPipelined,
		MaxInners: 50, MaxOuters: 10,
		Deadline: 2 * time.Second,
		Fault:    &FaultSchedule{Seed: 7, Rules: []FaultRule{{From: 0, To: 1, Kind: FaultStall}}},
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		_, err := d.Run()
		var se *SweepError
		if !errors.As(err, &se) {
			t.Fatalf("run %d: expected *SweepError, got %v", run, err)
		}
		if se.Rank != 1 || se.Peer != 0 {
			t.Fatalf("run %d: SweepError names rank %d peer %d, want rank 1 peer 0", run, se.Rank, se.Peer)
		}
	}
	d.Close()
	d.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after fault-failed runs: %d before, %d now",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDistributedFaultRetryFacade pins the recovery half through the
// facade: a stall limited to the first attempt fails the sweep, the
// retry policy resets and re-runs it clean, and the Result reports the
// attempt count.
func TestDistributedFaultRetryFacade(t *testing.T) {
	p := smallProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	before := settleFacadeGoroutines()
	d, err := NewDistributed(p, Options{
		Scheme: Engine, Threads: 2, Protocol: CommPipelined,
		Epsi: 1e-8, MaxInners: 100, MaxOuters: 30,
		// Wide enough that the clean retry attempt can never race the
		// watchdog on a slow/loaded box (the -race solve alone runs ~2s
		// there); the stalled first attempt pays this in full, so keep it
		// bounded.
		Deadline:      8 * time.Second,
		FailurePolicy: FailurePolicy{Mode: FailRetry, MaxRetries: 2, Backoff: time.Millisecond},
		Fault: &FaultSchedule{Seed: 7, Rules: []FaultRule{
			{From: 0, To: 1, Kind: FaultStall, Attempts: 1},
		}},
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("got %d attempts, want 2 (one stalled, one clean)", res.Attempts)
	}
	if res.Degraded || d.Degraded() {
		t.Fatal("retry recovery must not degrade the driver")
	}
	if !res.Converged {
		t.Fatal("recovered run should converge")
	}
	d.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after retry recovery: %d before, %d now",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFacadeHealthChecks pins the Options.HealthChecks surface: a NaN
// source poisons the flux on the first inner and the run fails with a
// typed *HealthError instead of iterating on garbage.
func TestFacadeHealthChecks(t *testing.T) {
	p := smallProblem()
	s, err := NewSolver(p, Options{HealthChecks: true, MaxInners: 10, MaxOuters: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Internal().Mesh().Elems[0].Source = math.NaN()
	_, err = s.Run()
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("expected *HealthError, got %v", err)
	}
}
