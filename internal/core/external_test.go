package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

func externalParts(t *testing.T, n int, twist float64) (*mesh.Mesh, *quadrature.Set, *xs.Library) {
	t.Helper()
	m, err := mesh.New(mesh.Config{NX: n, NY: n, NZ: n, LX: 1, LY: 1, LZ: 1,
		Twist: twist, MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(2)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibrary(2)
	if err != nil {
		t.Fatal(err)
	}
	return m, q, lib
}

// boundaryExternals declares every +y boundary face of the mesh external,
// classified canonically from our own side (so the classification matches
// the plain vacuum solver's).
func boundaryExternals(m *mesh.Mesh, re *fem.RefElement) []ExternalFace {
	var out []ExternalFace
	for e := range m.Elems {
		if m.Elems[e].Faces[fem.FaceYHi].Neighbor < 0 {
			out = append(out, ExternalFace{
				Elem: e, Face: fem.FaceYHi,
				Normal:    re.FaceUnitNormal(m.Elems[e].Geometry(), fem.FaceYHi),
				Canonical: true,
			})
		}
	}
	return out
}

// TestExternalVacuumEquivalence drives an external-coupled solver by hand:
// resolving every streamed dependency with (untouched, zero) inflow must
// reproduce the plain vacuum sweep exactly, and the publish hook must fire
// once per (ordinate, downwind external face).
func TestExternalVacuumEquivalence(t *testing.T) {
	for _, threads := range []int{1, 3} {
		m, q, lib := externalParts(t, 3, 0.002)
		re, err := fem.NewRefElement(1)
		if err != nil {
			t.Fatal(err)
		}
		ext := boundaryExternals(m, re)
		if len(ext) == 0 {
			t.Fatal("no boundary faces found")
		}
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeEngine, Threads: threads, External: ext,
			MaxInners: 1, MaxOuters: 1, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		var published atomic.Int64
		s.SetPublish(func(a, e, f int) { published.Add(1) })

		// Expected dependency/publish split from the shared classification.
		wantDeps, wantPubs := 0, 0
		type dep struct{ a, e int }
		var deps []dep
		for a := 0; a < q.NumAngles(); a++ {
			om := q.Angles[a].Omega
			for _, ef := range ext {
				if ExternalInflow(om, ef.Normal, ef.Canonical) {
					wantDeps++
					deps = append(deps, dep{a, ef.Elem})
				} else {
					wantPubs++
				}
			}
		}
		if wantDeps == 0 || wantPubs == 0 {
			t.Fatal("expected both dependencies and publishes")
		}

		s.ComputeOuterSource()
		s.PrepareInner()
		if err := s.ArmSweep(); err != nil {
			t.Fatal(err)
		}
		// Resolve from a separate goroutine, as the comm receiver would.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range deps {
				s.ResolveExternal(d.a, d.e)
			}
		}()
		if err := s.FinishSweep(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if got := published.Load(); got != int64(wantPubs) {
			t.Fatalf("threads=%d: %d publishes, want %d", threads, got, wantPubs)
		}

		// Reference: the same problem as a plain vacuum engine sweep.
		m2, q2, lib2 := externalParts(t, 3, 0.002)
		ref, err := New(Config{Mesh: m2, Order: 1, Quad: q2, Lib: lib2,
			Scheme: SchemeEngine, Threads: threads,
			MaxInners: 1, MaxOuters: 1, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		ref.ComputeOuterSource()
		ref.PrepareInner()
		if err := ref.SweepAllAngles(); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 2; g++ {
			a, b := s.FluxIntegral(g), ref.FluxIntegral(g)
			if math.Abs(a-b) > 1e-13*(1+math.Abs(b)) {
				t.Fatalf("threads=%d group %d: external %v vs vacuum %v", threads, g, a, b)
			}
		}
	}
}

// TestExternalSweepAPIErrors pins the misuse guards of the armed-sweep
// API.
func TestExternalSweepAPIErrors(t *testing.T) {
	m, q, lib := externalParts(t, 3, 0)
	plain, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: SchemeEngine})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.ArmSweep(); err == nil {
		t.Fatal("ArmSweep without External should fail")
	}
	if err := plain.FinishSweep(); err == nil {
		t.Fatal("FinishSweep without ArmSweep should fail")
	}

	re, err := fem.NewRefElement(1)
	if err != nil {
		t.Fatal(err)
	}
	m2, q2, lib2 := externalParts(t, 3, 0)
	ext := boundaryExternals(m2, re)
	s, err := New(Config{Mesh: m2, Order: 1, Quad: q2, Lib: lib2,
		Scheme: SchemeEngine, Threads: 2, External: ext})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.FinishSweep(); err == nil {
		t.Fatal("FinishSweep without ArmSweep should fail on an External solver")
	}

	// A bucket scheme holds External slots but no latent dependencies: it
	// sweeps self-driven only.
	m3, q3, lib3 := externalParts(t, 3, 0)
	b, err := New(Config{Mesh: m3, Order: 1, Quad: q3, Lib: lib3,
		Scheme: SchemeAEG, Threads: 2, External: boundaryExternals(m3, re)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.ArmSweep(); err == nil {
		t.Fatal("ArmSweep on a bucket-scheme External solver should fail")
	}
}

// TestExternalConfigValidation covers the config-level rejections.
func TestExternalConfigValidation(t *testing.T) {
	m, q, lib := externalParts(t, 3, 0)
	re, err := fem.NewRefElement(1)
	if err != nil {
		t.Fatal(err)
	}
	ext := boundaryExternals(m, re)
	base := Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: SchemeEngine, External: ext}

	ok := base
	ok.Scheme = SchemeAEG
	if s, err := New(ok); err != nil {
		t.Fatalf("External + bucket scheme should be accepted (self-driven sweeps): %v", err)
	} else {
		s.Close()
	}
	ok = base
	ok.AllowCycles = true
	if s, err := New(ok); err != nil {
		t.Fatalf("External + AllowCycles should be accepted (cycle-aware engine): %v", err)
	} else {
		s.Close()
	}
	bad := base
	bad.CycleLag = func(a, from, to int) bool { return false }
	if _, err := New(bad); err == nil {
		t.Fatal("CycleLag without AllowCycles should be rejected")
	}
	bad = base
	bad.Reflect = [3]bool{false, false, true}
	if _, err := New(bad); err == nil {
		t.Fatal("External + Reflect should be rejected")
	}
	bad = base
	bad.External = []ExternalFace{{Elem: 0, Face: 99}}
	if _, err := New(bad); err == nil {
		t.Fatal("out-of-range face should be rejected")
	}
	bad = base
	bad.External = []ExternalFace{{Elem: 13, Face: fem.FaceYLo}} // centre elem: interior face
	if _, err := New(bad); err == nil {
		t.Fatal("interior face should be rejected")
	}
	bad = base
	bad.External = append(append([]ExternalFace(nil), ext...), ext[0])
	if _, err := New(bad); err == nil {
		t.Fatal("duplicate face should be rejected")
	}
}

// TestCancelSweep aborts an armed sweep whose dependencies are never
// resolved: FinishSweep must return promptly with the cancel error, the
// cancel must stick until reset, and a reset solver must sweep normally.
func TestCancelSweep(t *testing.T) {
	for _, threads := range []int{1, 3} {
		m, q, lib := externalParts(t, 3, 0)
		re, err := fem.NewRefElement(1)
		if err != nil {
			t.Fatal(err)
		}
		ext := boundaryExternals(m, re)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeEngine, Threads: threads, External: ext,
			MaxInners: 1, MaxOuters: 1, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.ComputeOuterSource()
		s.PrepareInner()
		if err := s.ArmSweep(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.FinishSweep() }()
		s.CancelSweep()
		if err := <-done; !IsSweepCancelled(err) {
			t.Fatalf("threads=%d: FinishSweep after cancel: %v", threads, err)
		}
		if err := s.ArmSweep(); !IsSweepCancelled(err) {
			t.Fatalf("threads=%d: cancel should be sticky, got %v", threads, err)
		}
		s.ResetSweepCancel()
		if err := s.ArmSweep(); err != nil {
			t.Fatalf("threads=%d: ArmSweep after reset: %v", threads, err)
		}
		// Resolve everything so the sweep can finish cleanly.
		go func() {
			for a := 0; a < q.NumAngles(); a++ {
				om := q.Angles[a].Omega
				for _, ef := range ext {
					if ExternalInflow(om, ef.Normal, ef.Canonical) {
						s.ResolveExternal(a, ef.Elem)
					}
				}
			}
		}()
		if err := s.FinishSweep(); err != nil {
			t.Fatalf("threads=%d: FinishSweep after reset: %v", threads, err)
		}
	}
}

// TestArmedSweepAllocFree brings the externally-driven sweep under the
// zero-allocation contract of TestSweepTaskAllocFree: in steady state
// ArmSweep + every ResolveExternal + FinishSweep, and the source passes
// around them, allocate nothing — the phase state is the engine's one
// reusable one and the inbox is sized for a whole sweep. Threads = 1 is
// the no-goroutine case whose worker 0 still parks on the condition
// variable; at 3 the background workers drain the inbox concurrently. A
// cyclic mesh with the same boundary externals adds the lag store's
// refill, a pool round at the end of FinishSweep and SweepAllAngles. A
// reflective self-driven sweep, whose mirror edges are released through
// the same counters, allocates nothing either.
func TestArmedSweepAllocFree(t *testing.T) {
	re, err := fem.NewRefElement(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		m, q, lib := externalParts(t, 3, 0.002)
		plain := Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeEngine, Threads: threads, External: boundaryExternals(m, re)}
		cyclic := cyclicProblem(t)
		cyclic.Scheme, cyclic.Threads = SchemeEngine, threads
		cyclic.External = boundaryExternals(cyclic.Mesh, re)
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"external", plain}, {"cyclic external", cyclic}} {
			s, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if (s.lag != nil) != c.cfg.AllowCycles {
				t.Fatalf("threads=%d %s: lag store of %d values", threads, c.name, len(s.lag))
			}
			pinArmedSweepAllocs(t, s, fmt.Sprintf("threads=%d %s", threads, c.name))
		}

		cfg := engineProblem(t)
		cfg.Scheme, cfg.Threads, cfg.Reflect = SchemeEngine, threads, [3]bool{true, true, true}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reflective := func() {
			r.ComputeOuterSource()
			r.PrepareInner()
			if err := r.SweepAllAngles(); err != nil {
				t.Fatal(err)
			}
		}
		reflective() // warm-up: builds the engine, starts the workers
		if avg := testing.AllocsPerRun(10, reflective); avg != 0 {
			t.Fatalf("threads=%d: a reflective self-driven sweep allocates %.1f objects, want 0", threads, avg)
		}
	}
}

// pinArmedSweepAllocs fails unless an armed sweep of s (ArmSweep, every
// ResolveExternal, FinishSweep) and a self-driven one, each with its
// source passes, allocate nothing after a warm-up sweep.
func pinArmedSweepAllocs(t *testing.T, s *Solver, label string) {
	t.Helper()
	type dep struct{ a, e int }
	var deps []dep
	for a, ang := range s.cfg.Quad.Angles {
		for _, ef := range s.cfg.External {
			if ExternalInflow(ang.Omega, ef.Normal, ef.Canonical) {
				deps = append(deps, dep{a, ef.Elem})
			}
		}
	}
	armed := func() {
		s.ComputeOuterSource()
		s.PrepareInner()
		if err := s.ArmSweep(); err != nil {
			t.Fatal(err)
		}
		for _, d := range deps {
			s.ResolveExternal(d.a, d.e)
		}
		if err := s.FinishSweep(); err != nil {
			t.Fatal(err)
		}
	}
	armed() // warm-up: builds the engine, starts the workers
	if avg := testing.AllocsPerRun(10, armed); avg != 0 {
		t.Fatalf("%s: an armed sweep allocates %.1f objects, want 0", label, avg)
	}
	// The self-driven sweep resolves the same dependencies in one pass
	// through the same inbox.
	selfDriven := func() {
		s.ComputeOuterSource()
		s.PrepareInner()
		if err := s.SweepAllAngles(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(10, selfDriven); avg != 0 {
		t.Fatalf("%s: a self-driven External sweep allocates %.1f objects, want 0", label, avg)
	}
}

// TestSelfDrivenExternalSweep pins the block Jacobi reading of External
// slots: SweepAllAngles on slots filled beforehand equals, bit for bit,
// the armed sweep that streams the same values in (ArmSweep, every
// ResolveExternal, FinishSweep) under both task kernels, and keeps the
// fused octant phase. A bucket scheme, which cannot arm, reads the same
// slots to the engine's answer at 1e-12, bitwise across thread counts.
func TestSelfDrivenExternalSweep(t *testing.T) {
	type variant struct {
		scheme Scheme
		kernel KernelMode
	}
	solve := func(v variant, threads int, armed bool) (phi, psi []float64) {
		t.Helper()
		m, q, lib := externalParts(t, 3, 0.002)
		re, err := fem.NewRefElement(1)
		if err != nil {
			t.Fatal(err)
		}
		ext := boundaryExternals(m, re)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: v.scheme, Kernel: v.kernel, Threads: threads, External: ext})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for fi := range ext {
			for a := 0; a < s.nA; a++ {
				for i, buf := 0, s.ExternalInflowBuffer(fi, a); i < len(buf); i++ {
					buf[i] = 0.25 + float64((fi*7+a*3+i)%11)/16
				}
			}
		}
		s.ComputeOuterSource()
		for inner := 0; inner < 2; inner++ {
			s.PrepareInner()
			if !armed {
				if err := s.SweepAllAngles(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := s.ArmSweep(); err != nil {
				t.Fatal(err)
			}
			for a, ang := range q.Angles {
				for _, ef := range ext {
					if ExternalInflow(ang.Omega, ef.Normal, ef.Canonical) {
						s.ResolveExternal(a, ef.Elem)
					}
				}
			}
			if err := s.FinishSweep(); err != nil {
				t.Fatal(err)
			}
		}
		return snapshotSolver(s)
	}
	bitwise := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: [%d] %v vs %v (not bitwise)", what, i, a[i], b[i])
			}
		}
	}
	engPhi, _ := solve(variant{SchemeEngine, KernelBatched}, 1, true)
	for _, threads := range []int{1, 3} {
		for _, v := range []variant{{SchemeEngine, KernelBatched}, {SchemeEngine, KernelScalar}} {
			phi, psi := solve(v, threads, false)
			wantPhi, wantPsi := solve(v, threads, true)
			bitwise(fmt.Sprintf("%+v threads=%d phi", v, threads), phi, wantPhi)
			bitwise(fmt.Sprintf("%+v threads=%d psi", v, threads), psi, wantPsi)
		}
		phi, psi := solve(variant{SchemeAEG, KernelBatched}, threads, false)
		refPhi, refPsi := solve(variant{SchemeAEG, KernelBatched}, 1, false)
		bitwise(fmt.Sprintf("AEG threads=%d phi", threads), phi, refPhi)
		bitwise(fmt.Sprintf("AEG threads=%d psi", threads), psi, refPsi)
		for i := range phi {
			if math.Abs(phi[i]-engPhi[i]) > 1e-12*(1+math.Abs(engPhi[i])) {
				t.Fatalf("AEG threads=%d phi[%d]: %v vs engine %v", threads, i, phi[i], engPhi[i])
			}
		}
	}
}
