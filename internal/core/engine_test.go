package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// engineProblem builds the 4x4x4 twisted-mesh configuration the engine
// acceptance tests run on.
func engineProblem(t *testing.T) Config {
	t.Helper()
	m, q, lib := testProblem(t, 4, 2, 3, 0.004)
	return Config{
		Mesh: m, Order: 1, Quad: q, Lib: lib,
		MaxInners: 3, MaxOuters: 2, ForceIterations: true,
	}
}

// snapshotSolver flattens the solver's scalar and angular flux into
// layout-independent (e, g, node) / (a, e, g, node) ordering.
func snapshotSolver(s *Solver) (phi, psi []float64) {
	phi = make([]float64, 0, s.nE*s.nG*s.nN)
	for e := 0; e < s.nE; e++ {
		for g := 0; g < s.nG; g++ {
			for i := 0; i < s.nN; i++ {
				phi = append(phi, s.Phi(e, g, i))
			}
		}
	}
	psi = make([]float64, 0, s.nA*s.nE*s.nG*s.nN)
	for a := 0; a < s.nA; a++ {
		for e := 0; e < s.nE; e++ {
			for g := 0; g < s.nG; g++ {
				for i := 0; i < s.nN; i++ {
					psi = append(psi, s.Psi(a, e, g, i))
				}
			}
		}
	}
	return phi, psi
}

func runAndSnapshot(t *testing.T, cfg Config) (phi, psi []float64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return snapshotSolver(s)
}

// TestEngineMatchesLegacy checks the engine path against the legacy
// SchemeAEg executor on a 4x4x4 twisted mesh: scalar and angular fluxes
// must agree to 1e-12 relative.
func TestEngineMatchesLegacy(t *testing.T) {
	legacy := engineProblem(t)
	legacy.Scheme = SchemeAEg
	legacy.Threads = 1
	refPhi, refPsi := runAndSnapshot(t, legacy)

	for _, threads := range []int{1, 4} {
		eng := engineProblem(t)
		eng.Scheme = SchemeEngine
		eng.Threads = threads
		phi, psi := runAndSnapshot(t, eng)
		for i := range refPhi {
			if math.Abs(phi[i]-refPhi[i]) > 1e-12*(1+math.Abs(refPhi[i])) {
				t.Fatalf("threads=%d: phi[%d] engine %v vs legacy %v", threads, i, phi[i], refPhi[i])
			}
		}
		for i := range refPsi {
			if math.Abs(psi[i]-refPsi[i]) > 1e-12*(1+math.Abs(refPsi[i])) {
				t.Fatalf("threads=%d: psi[%d] engine %v vs legacy %v", threads, i, psi[i], refPsi[i])
			}
		}
	}
}

// TestOctantOverlapMatchesLegacy checks the cross-octant fused task graph
// against the legacy bucket executor, across thread counts, to 1e-12.
func TestOctantOverlapMatchesLegacy(t *testing.T) {
	legacy := engineProblem(t)
	legacy.Scheme = SchemeAEg
	legacy.Threads = 1
	refPhi, refPsi := runAndSnapshot(t, legacy)

	check := func(name string, phi, psi []float64) {
		t.Helper()
		for i := range refPhi {
			if math.Abs(phi[i]-refPhi[i]) > 1e-12*(1+math.Abs(refPhi[i])) {
				t.Fatalf("%s: phi[%d] %v vs legacy %v", name, i, phi[i], refPhi[i])
			}
		}
		for i := range refPsi {
			if math.Abs(psi[i]-refPsi[i]) > 1e-12*(1+math.Abs(refPsi[i])) {
				t.Fatalf("%s: psi[%d] %v vs legacy %v", name, i, psi[i], refPsi[i])
			}
		}
	}
	for _, threads := range []int{1, 2, 4} {
		cfg := engineProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = threads
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		phi, psi := snapshotSolver(s)
		check("fused", phi, psi)
		s.Close()
	}
}

// TestEngineStallFailsCleanly corrupts a task counter so one element can
// never fire and checks the sweep reports errEngineStalled instead of
// hanging — in inline mode and, the regression this pins down, with a
// pool of workers that previously parked forever on the cond var.
func TestEngineStallFailsCleanly(t *testing.T) {
	for _, threads := range []int{1, 4} {
		cfg := engineProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = threads
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := s.ensureEngine()
		tampered := -1
		for tid, c := range eng.initCounts {
			if c > 0 {
				eng.initCounts[tid]++ // one prerequisite that never resolves
				tampered = tid
				break
			}
		}
		if tampered < 0 {
			t.Fatal("no dependent task to tamper with")
		}
		s.PrepareInner()
		done := make(chan error, 1)
		go func() { done <- s.SweepAllAngles() }()
		select {
		case err := <-done:
			if !errors.Is(err, errEngineStalled) {
				t.Fatalf("threads=%d: got %v, want errEngineStalled", threads, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("threads=%d: stalled sweep deadlocked instead of failing", threads)
		}
		s.Close()
	}
}

// TestEngineTimeDependentMatchesLegacy checks the engine (fused octants)
// against the legacy executor in SNAP's backward-Euler time-dependent
// mode: per-step flux integrals and the final flux must agree to 1e-12.
func TestEngineTimeDependentMatchesLegacy(t *testing.T) {
	run := func(scheme Scheme, threads int) ([]StepResult, []float64) {
		cfg := engineProblem(t)
		cfg.Scheme = scheme
		cfg.Threads = threads
		cfg.MaxInners = 2
		cfg.MaxOuters = 1
		cfg.Time = &TimeConfig{
			Steps: 3, Dt: 0.5,
			Velocity: DefaultVelocities(cfg.Lib.NumGroups),
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		steps, err := s.RunTimeDependent(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		phi, _ := snapshotSolver(s)
		return steps, phi
	}
	refSteps, refPhi := run(SchemeAEg, 1)
	steps, phi := run(SchemeEngine, 4)
	if len(steps) != len(refSteps) {
		t.Fatalf("step counts differ: %d vs %d", len(steps), len(refSteps))
	}
	for i := range steps {
		for g := range steps[i].FluxIntegral {
			a, b := steps[i].FluxIntegral[g], refSteps[i].FluxIntegral[g]
			if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
				t.Fatalf("step %d group %d: engine %v vs legacy %v", i, g, a, b)
			}
		}
	}
	for i := range refPhi {
		if math.Abs(phi[i]-refPhi[i]) > 1e-12*(1+math.Abs(refPhi[i])) {
			t.Fatalf("final phi[%d]: engine %v vs legacy %v", i, phi[i], refPhi[i])
		}
	}
}

// TestEngineDeterministic checks the engine is bitwise reproducible: two
// fresh solvers at Threads=4 (and the same solver across thread counts,
// thanks to the ordered reduction) must produce identical bits.
func TestEngineDeterministic(t *testing.T) {
	run := func(threads int) ([]float64, []float64) {
		cfg := engineProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = threads
		return runAndSnapshot(t, cfg)
	}
	phi1, psi1 := run(4)
	phi2, psi2 := run(4)
	for i := range phi1 {
		if phi1[i] != phi2[i] {
			t.Fatalf("phi[%d] differs across runs: %v vs %v", i, phi1[i], phi2[i])
		}
	}
	for i := range psi1 {
		if psi1[i] != psi2[i] {
			t.Fatalf("psi[%d] differs across runs: %v vs %v", i, psi1[i], psi2[i])
		}
	}
	phi3, _ := run(2)
	for i := range phi1 {
		if phi1[i] != phi3[i] {
			t.Fatalf("phi[%d] differs across thread counts: %v vs %v", i, phi1[i], phi3[i])
		}
	}
}

// TestEnginePreassembledMatches checks the engine composes with the
// pre-factorised matrix mode. PreAssembled is the factor store filled
// eagerly with every element its own class; the engine then runs the
// cached batched path, and cached == uncached is bitwise, so the flux is
// the on-the-fly run's bit for bit, at any thread count of the fill.
func TestEnginePreassembledMatches(t *testing.T) {
	base := engineProblem(t)
	base.Scheme = SchemeEngine
	base.Threads = 2
	refPhi, refPsi := runAndSnapshot(t, base)

	for _, threads := range []int{1, 3} {
		pre := engineProblem(t)
		pre.Scheme = SchemeEngine
		pre.Threads = threads
		pre.PreAssembled = true
		phi, psi := runAndSnapshot(t, pre)
		for i := range refPhi {
			if phi[i] != refPhi[i] {
				t.Fatalf("threads=%d phi[%d] pre-assembled %v vs on-the-fly %v (not bitwise)", threads, i, phi[i], refPhi[i])
			}
		}
		for i := range refPsi {
			if psi[i] != refPsi[i] {
				t.Fatalf("threads=%d psi[%d] pre-assembled %v vs on-the-fly %v (not bitwise)", threads, i, psi[i], refPsi[i])
			}
		}
	}
}

// TestEngineReflectiveMatches checks the engine respects the reflective
// boundary coupling (mirror ordinates live in other octants, so the
// mirror edges of the engine's fused graph must preserve the legacy
// octant ordering).
func TestEngineReflectiveMatches(t *testing.T) {
	run := func(scheme Scheme, threads int) []float64 {
		cfg := engineProblem(t)
		cfg.Scheme = scheme
		cfg.Threads = threads
		cfg.Reflect = [3]bool{true, false, true}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		out, _ := snapshotSolver(s)
		return out
	}
	ref := run(SchemeAEg, 1)
	got := run(SchemeEngine, 4)
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
			t.Fatalf("reflective phi[%d] engine %v vs legacy %v", i, got[i], ref[i])
		}
	}
}

// TestEngineCloseAndReuse checks Close stops the pool deterministically,
// is idempotent, and that a later Run transparently restarts it with
// identical results — and the goroutine budget along the way: a
// Threads = 4 solver parks exactly 3 goroutines after a Run, none after
// Close, and Close -> Run -> Close returns to none.
func TestEngineCloseAndReuse(t *testing.T) {
	base := goroutineBaseline()
	// Reference: two warm-started Runs on a solver that is not closed in
	// between (Run continues from the current flux, so the second differs
	// from the first by design).
	ref, err := New(func() Config {
		cfg := engineProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = 4
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	wantGoroutines(t, base+3, "after two Runs")
	ref.Close()
	wantGoroutines(t, base, "after Close")

	cfg := engineProblem(t)
	cfg.Scheme = SchemeEngine
	cfg.Threads = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wantGoroutines(t, base+3, "after Run")
	first := s.FluxIntegral(0)
	s.Close()
	s.Close() // idempotent
	wantGoroutines(t, base, "after Close")
	if got := s.FluxIntegral(0); got != first {
		t.Fatalf("state changed by Close: %v vs %v", got, first)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	wantGoroutines(t, base+3, "after Close and Run")
	if got, want := s.FluxIntegral(0), ref.FluxIntegral(0); got != want {
		t.Fatalf("restarted pool diverged from uninterrupted solver: %v vs %v", got, want)
	}
	s.Close()
	wantGoroutines(t, base, "after Close, Run, Close")
}
