package core

import (
	"context"
	"math"
	"testing"

	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

func TestTimeConfigValidate(t *testing.T) {
	cases := []TimeConfig{
		{Steps: 0, Dt: 1, Velocity: []float64{1}},
		{Steps: 1, Dt: 0, Velocity: []float64{1}},
		{Steps: 1, Dt: 1, Velocity: []float64{1, 2}},
		{Steps: 1, Dt: 1, Velocity: []float64{-1}},
	}
	for i, tc := range cases {
		if err := tc.validate(1); err == nil {
			t.Fatalf("case %d should be invalid", i)
		}
	}
	good := TimeConfig{Steps: 2, Dt: 0.5, Velocity: []float64{1}}
	if err := good.validate(1); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultVelocitiesDecreasing(t *testing.T) {
	v := DefaultVelocities(5)
	for g := 1; g < 5; g++ {
		if v[g] >= v[g-1] {
			t.Fatalf("velocities should decrease with group index: %v", v)
		}
	}
}

func TestRunTimeDependentRequiresConfig(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: SchemeAEG})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunTimeDependent(context.Background()); err == nil {
		t.Fatal("expected error without Config.Time")
	}
}

// TestTimeDependentInfiniteMediumRecurrence: with all-reflective walls, a
// homogeneous pure absorber and a uniform source, every BDF1 step has the
// spatially constant exact solution
//
//	psi_n = (q + vdelt * psi_{n-1}) / (sigma_t + vdelt)
//
// which lies in the DG space, so the numerical flux must follow the scalar
// recurrence to solver precision, approaching the steady value q/sigma_t.
func TestTimeDependentInfiniteMediumRecurrence(t *testing.T) {
	m, err := mesh.New(mesh.Config{NX: 2, NY: 2, NZ: 2, LX: 1, LY: 1, LZ: 1,
		MatOpt: xs.MatOptHomogeneous, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := quadrature.NewSNAP(1)
	sigt := 1.5
	lib := &xs.Library{
		NumGroups: 1,
		Total:     [][]float64{{sigt}, {sigt}},
		Absorb:    [][]float64{{sigt}, {sigt}},
		ScatTotal: [][]float64{{0}, {0}},
		Scatter:   [][][]float64{{{0}}, {{0}}},
	}
	vel := 2.0
	dt := 0.4
	steps := 6
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-12, MaxInners: 200, MaxOuters: 1,
		Time:    &TimeConfig{Steps: steps, Dt: dt, Velocity: []float64{vel}},
		Reflect: [3]bool{true, true, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.RunTimeDependent(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != steps {
		t.Fatalf("got %d step records, want %d", len(rec), steps)
	}
	vdelt := 1 / (vel * dt)
	want := 0.0
	for n := 0; n < steps; n++ {
		want = (1 + vdelt*want) / (sigt + vdelt)
		got := rec[n].FluxIntegral[0] // unit volume: integral == value
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("step %d: flux %v, want %v", n, got, want)
		}
	}
	// Monotone approach to the steady value q/sigma_t.
	steady := 1 / sigt
	for n := 1; n < steps; n++ {
		if rec[n].FluxIntegral[0] <= rec[n-1].FluxIntegral[0] {
			t.Fatalf("flux not monotone at step %d: %v", n, rec)
		}
	}
	if rec[steps-1].FluxIntegral[0] >= steady {
		t.Fatalf("flux overshot the steady value: %v >= %v", rec[steps-1].FluxIntegral[0], steady)
	}
}

// TestTimeDependentApproachesSteadyState: on a vacuum-bounded scattering
// problem, enough large time steps must land near the steady solution.
func TestTimeDependentApproachesSteadyState(t *testing.T) {
	m, q, lib := testProblem(t, 2, 2, 1, 0.001)
	steady, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-9, MaxInners: 300, MaxOuters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := steady.Run(); err != nil {
		t.Fatal(err)
	}

	m2, q2, lib2 := testProblem(t, 2, 2, 1, 0.001)
	td, err := New(Config{Mesh: m2, Order: 1, Quad: q2, Lib: lib2,
		Scheme: SchemeAEG, Epsi: 1e-9, MaxInners: 300, MaxOuters: 30,
		Time: &TimeConfig{Steps: 25, Dt: 2, Velocity: DefaultVelocities(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := td.RunTimeDependent(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	last := rec[len(rec)-1]
	for g := 0; g < 2; g++ {
		want := steady.FluxIntegral(g)
		if math.Abs(last.FluxIntegral[g]-want) > 0.02*want {
			t.Fatalf("group %d: time-dependent end state %v, steady %v",
				g, last.FluxIntegral[g], want)
		}
	}
	// Early steps must be clearly below the steady level.
	if rec[0].FluxIntegral[0] >= 0.9*steady.FluxIntegral(0) {
		t.Fatalf("first step suspiciously close to steady: %v", rec[0].FluxIntegral[0])
	}
}

// TestTimeDependentPreAssembled: the pre-assembled path must bake the
// time-absorption term into the factored matrices.
func TestTimeDependentPreAssembled(t *testing.T) {
	run := func(pre bool) float64 {
		m, q, lib := testProblem(t, 2, 1, 1, 0)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, Epsi: 1e-10, MaxInners: 100, MaxOuters: 5,
			PreAssembled: pre,
			Time:         &TimeConfig{Steps: 3, Dt: 1, Velocity: DefaultVelocities(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.RunTimeDependent(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rec[len(rec)-1].FluxIntegral[0]
	}
	a, b := run(false), run(true)
	if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
		t.Fatalf("pre-assembled time stepping diverges: %v vs %v", b, a)
	}
}
