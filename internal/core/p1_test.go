package core

import (
	"math"
	"testing"

	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

func TestScatOrderValidation(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0)
	if _, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib, ScatOrder: 1}); err == nil {
		t.Fatal("ScatOrder 1 without P1 data must be rejected")
	}
	if _, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib, ScatOrder: 2}); err == nil {
		t.Fatal("ScatOrder 2 is unsupported and must be rejected")
	}
}

// TestP1ZeroAnisotropyMatchesIsotropic: a P1 library whose first-moment
// matrix is all zeros must reproduce the isotropic solution exactly.
func TestP1ZeroAnisotropyMatchesIsotropic(t *testing.T) {
	run := func(scatOrder int) float64 {
		m, q, _ := testProblem(t, 3, 2, 2, 0.001)
		lib, err := xs.NewLibraryP1(2)
		if err != nil {
			t.Fatal(err)
		}
		if scatOrder == 1 {
			for mt := range lib.ScatterP1 {
				for g := range lib.ScatterP1[mt] {
					for gp := range lib.ScatterP1[mt][g] {
						lib.ScatterP1[mt][g][gp] = 0
					}
				}
			}
		}
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, ScatOrder: scatOrder,
			MaxInners: 4, MaxOuters: 2, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.FluxIntegral(0)
	}
	iso := run(0)
	p1zero := run(1)
	if math.Abs(iso-p1zero) > 1e-12*(1+math.Abs(iso)) {
		t.Fatalf("zero-anisotropy P1 diverges from isotropic: %v vs %v", p1zero, iso)
	}
}

// TestP1InfiniteMediumStillExact: in the all-reflective infinite medium
// the current vanishes by symmetry, so the P1 term drops out and the
// exact solution phi = q/sigma_a must still be reproduced.
func TestP1InfiniteMediumStillExact(t *testing.T) {
	m, err := mesh.New(mesh.Config{NX: 2, NY: 2, NZ: 2, LX: 1, LY: 1, LZ: 1,
		MatOpt: xs.MatOptHomogeneous, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := quadrature.NewSNAP(2)
	lib, err := xs.NewLibraryP1(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, ScatOrder: 1, Epsi: 1e-11, MaxInners: 500, MaxOuters: 5,
		Reflect: [3]bool{true, true, true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res.FinalDF)
	}
	want := 1.0 / lib.Absorb[xs.Mat1][0]
	for e := 0; e < s.NumElems(); e++ {
		for i := 0; i < s.NumNodes(); i++ {
			if got := s.Phi(e, 0, i); math.Abs(got-want) > 1e-6*want {
				t.Fatalf("phi[%d][%d] = %v, want %v", e, i, got, want)
			}
		}
	}
	// The current must vanish (to iteration tolerance) by symmetry.
	for d := 0; d < 3; d++ {
		if j := s.Current(d, 0, 0, 0); math.Abs(j) > 1e-6 {
			t.Fatalf("infinite-medium current J_%d = %v, want ~0", d, j)
		}
	}
}

// TestP1ForwardPeakingIncreasesLeakage: forward-peaked scattering
// (positive mean cosine) preserves particle direction, which increases
// penetration and therefore boundary leakage relative to isotropic
// scattering on the same vacuum-bounded problem.
func TestP1ForwardPeakingIncreasesLeakage(t *testing.T) {
	run := func(scatOrder int) Balance {
		m, q, _ := testProblem(t, 4, 1, 2, 0)
		lib, err := xs.NewLibraryP1(1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, ScatOrder: scatOrder,
			Epsi: 1e-9, MaxInners: 400, MaxOuters: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("order %d did not converge", scatOrder)
		}
		return res.Balance
	}
	iso := run(0)
	p1 := run(1)
	if p1.Leakage <= iso.Leakage {
		t.Fatalf("forward-peaked scattering should raise leakage: P1 %v vs iso %v",
			p1.Leakage, iso.Leakage)
	}
	// P1 scattering conserves particles, so the balance must still close.
	if p1.Residual > 1e-6 {
		t.Fatalf("P1 balance residual %v: %+v", p1.Residual, p1)
	}
}

// TestP1CurrentAccumulation: on a converged vacuum problem the current
// must point outward (positive x-component on the +x half of the domain).
func TestP1CurrentAccumulation(t *testing.T) {
	m, q, _ := testProblem(t, 4, 1, 2, 0)
	lib, _ := xs.NewLibraryP1(1)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, ScatOrder: 1, Epsi: 1e-8, MaxInners: 300, MaxOuters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Element at structured (3, 1, 1) is in the +x half: J_x > 0 there.
	e := 3 + 4*(1+4*1)
	if j := s.Current(0, e, 0, 0); j <= 0 {
		t.Fatalf("current should point outward on the +x side, got %v", j)
	}
	// Mirror element in the -x half: J_x < 0.
	e = 0 + 4*(1+4*1)
	if j := s.Current(0, e, 0, 0); j >= 0 {
		t.Fatalf("current should point outward on the -x side, got %v", j)
	}
}

func TestCurrentZeroWhenIsotropic(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: SchemeAEG,
		MaxInners: 1, MaxOuters: 1, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Current(0, 0, 0, 0) != 0 {
		t.Fatal("isotropic runs must report zero current")
	}
}
