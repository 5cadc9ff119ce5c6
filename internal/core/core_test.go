package core

import (
	"math"
	"testing"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// testProblem returns a small twisted problem for the integration tests.
func testProblem(t *testing.T, n, groups, nang int, twist float64) (*mesh.Mesh, *quadrature.Set, *xs.Library) {
	t.Helper()
	m, err := mesh.New(mesh.Config{NX: n, NY: n, NZ: n, LX: 1, LY: 1, LZ: 1,
		Twist: twist, MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(nang)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibrary(groups)
	if err != nil {
		t.Fatal(err)
	}
	return m, q, lib
}

// pureAbsorberLib builds a custom single-group library with sigma_s = 0
// for both materials (exact consistency tests need no scattering).
func pureAbsorberLib(sigt float64) *xs.Library {
	mk := func() [][]float64 { return [][]float64{{sigt}, {sigt}} }
	zero := func() [][]float64 { return [][]float64{{0}, {0}} }
	scat := [][][]float64{{{0}}, {{0}}}
	return &xs.Library{
		NumGroups: 1,
		Total:     mk(),
		Absorb:    mk(),
		ScatTotal: zero(),
		Scatter:   scat,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0)
	cases := []Config{
		{Mesh: nil, Order: 1, Quad: q, Lib: lib},
		{Mesh: m, Order: 0, Quad: q, Lib: lib},
		{Mesh: m, Order: 1, Quad: nil, Lib: lib},
		{Mesh: m, Order: 1, Quad: q, Lib: nil},
		{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: Scheme(99)},
		{Mesh: m, Order: 1, Quad: q, Lib: lib, Solver: SolverKind(9)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
}

func TestSchemeStringsRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip failed for %v", s)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSchemeLayouts(t *testing.T) {
	if SchemeAEg.Layout() != LayoutEG || SchemeAEG.Layout() != LayoutEG || SchemeAeG.Layout() != LayoutEG {
		t.Fatal("EG-family scheme has wrong layout")
	}
	if SchemeAGe.Layout() != LayoutGE || SchemeAGE.Layout() != LayoutGE || SchemeAgE.Layout() != LayoutGE {
		t.Fatal("GE-family scheme has wrong layout")
	}
	if SchemeEngine.Layout() != LayoutLanes {
		t.Fatal("the engine does not keep the lane-major layout")
	}
}

// TestConstantSolutionConsistency is the strongest single check of the
// numerical core: with sigma_s = 0, a fixed source q = sigma_t * c, and
// incoming boundary flux c, the exact transport solution psi = c is in the
// DG space, so one sweep must reproduce it to solver precision — on
// twisted meshes, for every scheme, both solvers and all orders.
func TestConstantSolutionConsistency(t *testing.T) {
	const c = 0.7
	const sigt = 1.3
	for _, order := range []int{1, 2} {
		for _, solver := range []SolverKind{SolverGE, SolverDGESV} {
			m, q, _ := testProblem(t, 3, 1, 2, 0.01)
			lib := pureAbsorberLib(sigt)
			for e := range m.Elems {
				m.Elems[e].Source = sigt * c
			}
			s := newWithInflow(t, Config{
				Mesh: m, Order: order, Quad: q, Lib: lib,
				Scheme: SchemeAEG, Threads: 2, Solver: solver,
				MaxInners: 1, MaxOuters: 1, ForceIterations: true,
			}, uniformInflow(c))
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			for e := 0; e < s.NumElems(); e++ {
				for i := 0; i < s.NumNodes(); i++ {
					if got := s.Phi(e, 0, i); math.Abs(got-c) > 1e-9 {
						t.Fatalf("order=%d solver=%v: phi[%d][%d] = %v, want %v",
							order, solver, e, i, got, c)
					}
				}
			}
			for a := 0; a < s.NumAngles(); a++ {
				if got := s.Psi(a, 0, 0, 0); math.Abs(got-c) > 1e-9 {
					t.Fatalf("order=%d: psi[%d] = %v, want %v", order, a, got, c)
				}
			}
		}
	}
}

func TestZeroSourceZeroFlux(t *testing.T) {
	m, q, _ := testProblem(t, 2, 1, 1, 0.005)
	lib := pureAbsorberLib(1)
	for e := range m.Elems {
		m.Elems[e].Source = 0
	}
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEg, MaxInners: 2, MaxOuters: 1, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < s.NumElems(); e++ {
		for i := 0; i < s.NumNodes(); i++ {
			if s.Phi(e, 0, i) != 0 {
				t.Fatalf("vacuum problem with no source must have zero flux")
			}
		}
	}
}

func TestAllSchemesAgree(t *testing.T) {
	var ref []float64
	for _, scheme := range Schemes() {
		m, q, lib := testProblem(t, 3, 3, 2, 0.002)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: scheme, Threads: 4, MaxInners: 3, MaxOuters: 2, ForceIterations: true})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		flat := make([]float64, 0, s.NumElems()*s.NumGroups()*s.NumNodes())
		for e := 0; e < s.NumElems(); e++ {
			for g := 0; g < s.NumGroups(); g++ {
				for i := 0; i < s.NumNodes(); i++ {
					flat = append(flat, s.Phi(e, g, i))
				}
			}
		}
		if ref == nil {
			ref = flat
			continue
		}
		for i := range flat {
			if math.Abs(flat[i]-ref[i]) > 1e-11*(1+math.Abs(ref[i])) {
				t.Fatalf("scheme %v diverges from reference at %d: %v vs %v",
					scheme, i, flat[i], ref[i])
			}
		}
	}
}

func TestThreadCountInvariance(t *testing.T) {
	run := func(threads int) []float64 {
		m, q, lib := testProblem(t, 3, 2, 2, 0.001)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, Threads: threads, MaxInners: 3, MaxOuters: 1, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0)
		for e := 0; e < s.NumElems(); e++ {
			for g := 0; g < s.NumGroups(); g++ {
				for i := 0; i < s.NumNodes(); i++ {
					out = append(out, s.Phi(e, g, i))
				}
			}
		}
		return out
	}
	a := run(1)
	b := run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("thread count changed results at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGEAndDGESVAgreeOnTransport(t *testing.T) {
	run := func(k SolverKind) float64 {
		m, q, lib := testProblem(t, 2, 2, 2, 0.003)
		s, err := New(Config{Mesh: m, Order: 2, Quad: q, Lib: lib,
			Scheme: SchemeAEG, Solver: k, MaxInners: 3, MaxOuters: 1, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.FluxIntegral(0)
	}
	ge := run(SolverGE)
	lu := run(SolverDGESV)
	if math.Abs(ge-lu) > 1e-9*(1+math.Abs(ge)) {
		t.Fatalf("solver kinds disagree: %v vs %v", ge, lu)
	}
}

func TestPreAssembledMatchesOnTheFly(t *testing.T) {
	run := func(pre bool) float64 {
		m, q, lib := testProblem(t, 2, 2, 1, 0.002)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, PreAssembled: pre, MaxInners: 3, MaxOuters: 1, ForceIterations: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.FluxIntegral(0)
	}
	onTheFly := run(false)
	pre := run(true)
	if math.Abs(onTheFly-pre) > 1e-9*(1+math.Abs(onTheFly)) {
		t.Fatalf("pre-assembled mode diverges: %v vs %v", pre, onTheFly)
	}
}

func TestConvergedBalance(t *testing.T) {
	m, q, lib := testProblem(t, 3, 2, 2, 0.001)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-9, MaxInners: 200, MaxOuters: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("expected convergence, final df %v", res.FinalDF)
	}
	if res.Balance.Source <= 0 {
		t.Fatalf("source should be positive: %+v", res.Balance)
	}
	if res.Balance.Residual > 1e-6 {
		t.Fatalf("particle balance residual %v too large: %+v", res.Balance.Residual, res.Balance)
	}
	if res.Balance.Absorption <= 0 || res.Balance.Leakage <= 0 {
		t.Fatalf("absorption and leakage should be positive: %+v", res.Balance)
	}
}

func TestMirrorSymmetry(t *testing.T) {
	// On an untwisted cube with x/y-symmetric data and the x/y-symmetric
	// SNAP quadrature, the flux must be invariant under swapping x and y.
	m, q, lib := testProblem(t, 3, 1, 2, 0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, MaxInners: 4, MaxOuters: 1, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	re := s.RefElement()
	n := 3
	idx := func(x, y, z int) int { return x + n*(y+n*z) }
	for ez := 0; ez < n; ez++ {
		for ey := 0; ey < n; ey++ {
			for ex := 0; ex < n; ex++ {
				e1 := idx(ex, ey, ez)
				e2 := idx(ey, ex, ez)
				for iz := 0; iz < re.ND; iz++ {
					for iy := 0; iy < re.ND; iy++ {
						for ix := 0; ix < re.ND; ix++ {
							a := s.Phi(e1, 0, re.NodeIndex(ix, iy, iz))
							b := s.Phi(e2, 0, re.NodeIndex(iy, ix, iz))
							if math.Abs(a-b) > 1e-10*(1+math.Abs(a)) {
								t.Fatalf("x/y mirror broken at elem %d node (%d,%d,%d): %v vs %v",
									e1, ix, iy, iz, a, b)
							}
						}
					}
				}
			}
		}
	}
}

func TestFluxPositiveAndBounded(t *testing.T) {
	// Pure absorber with unit source: the continuous solution satisfies
	// 0 < phi < q/sigma_t; the DG solution may overshoot slightly.
	m, q, _ := testProblem(t, 3, 1, 2, 0.001)
	lib := pureAbsorberLib(2.0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-8, MaxInners: 50, MaxOuters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	limit := 1.0/2.0*1.1 + 1e-9
	for e := 0; e < s.NumElems(); e++ {
		for i := 0; i < s.NumNodes(); i++ {
			v := s.Phi(e, 0, i)
			if v <= 0 || v > limit {
				t.Fatalf("flux out of physical bounds at elem %d node %d: %v", e, i, v)
			}
		}
	}
}

func TestScheduleStatsAndDedup(t *testing.T) {
	// Untwisted mesh: classification depends only on the octant signs, so
	// exactly 8 distinct topologies must be built for 2 angles per octant.
	m, q, lib := testProblem(t, 3, 1, 2, 0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: SchemeAEg})
	if err != nil {
		t.Fatal(err)
	}
	distinct, buckets, maxB, avgB := s.ScheduleStats()
	if distinct != 8 {
		t.Fatalf("distinct topologies = %d, want 8", distinct)
	}
	if buckets != 7 { // 3(n-1)+1 hyperplanes for n=3
		t.Fatalf("buckets = %d, want 7", buckets)
	}
	if maxB < 6 || avgB <= 0 {
		t.Fatalf("suspicious bucket stats: max %d avg %v", maxB, avgB)
	}
	if s.Lagged() != 0 {
		t.Fatalf("acyclic mesh reported %d lagged edges", s.Lagged())
	}
}

func TestAllowCyclesOnAcyclicMesh(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0.002)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, AllowCycles: true, MaxInners: 2, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Lagged() != 0 {
		t.Fatal("no cycles should be lagged on a twisted-structured mesh")
	}
}

func TestInstrumentTimers(t *testing.T) {
	m, q, lib := testProblem(t, 2, 2, 1, 0.001)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Instrument: true, MaxInners: 2, MaxOuters: 1, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssembleTime <= 0 || res.SolveTime <= 0 {
		t.Fatalf("instrumented run should report phase times, got %v / %v",
			res.AssembleTime, res.SolveTime)
	}
	if res.SweepTime <= 0 {
		t.Fatal("sweep time not recorded")
	}
}

func TestConvergenceMonotoneTail(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-10, MaxInners: 60, MaxOuters: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := res.DFHistory
	if len(h) < 3 {
		t.Fatalf("expected several inners, got %d", len(h))
	}
	if h[len(h)-1] >= h[0] {
		t.Fatalf("df did not decrease: first %v last %v", h[0], h[len(h)-1])
	}
}

// newWithInflow builds a solver with prescribed inflow on the whole domain
// boundary: every boundary face is declared External with its outward
// normal and Canonical set, so it is upwind for exactly the ordinates the
// vacuum solver's classification makes it upwind for, and fill writes each
// (face, ordinate) slot — every group's nodal values, group-major, in
// fem.RefElement.FaceNodes order. A self-driven Run reads the slots.
func newWithInflow(t *testing.T, cfg Config, fill func(ef ExternalFace, a int, slot []float64)) *Solver {
	t.Helper()
	re, err := fem.NewRefElement(cfg.Order)
	if err != nil {
		t.Fatal(err)
	}
	for e := range cfg.Mesh.Elems {
		for f := 0; f < fem.NumFaces; f++ {
			if cfg.Mesh.Elems[e].Faces[f].Neighbor < 0 {
				cfg.External = append(cfg.External, ExternalFace{Elem: e, Face: f,
					Normal: re.FaceUnitNormal(cfg.Mesh.Elems[e].Geometry(), f), Canonical: true})
			}
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i, ef := range cfg.External {
		for a := 0; a < s.NumAngles(); a++ {
			fill(ef, a, s.ExternalInflowBuffer(i, a))
		}
	}
	return s
}

// uniformInflow is a newWithInflow fill of the constant v.
func uniformInflow(v float64) func(ExternalFace, int, []float64) {
	return func(_ ExternalFace, _ int, slot []float64) {
		for i := range slot {
			slot[i] = v
		}
	}
}

func TestBoundaryFluxIncreasesFlux(t *testing.T) {
	run := func(inflow float64) float64 {
		m, q, _ := testProblem(t, 2, 1, 1, 0)
		lib := pureAbsorberLib(1)
		s := newWithInflow(t, Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, MaxInners: 2, MaxOuters: 1, ForceIterations: true},
			uniformInflow(inflow))
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.FluxIntegral(0)
	}
	vacuum := run(0)
	lit := run(1)
	if lit <= vacuum {
		t.Fatalf("incoming boundary flux should increase the solution: %v vs %v", lit, vacuum)
	}
}

func TestPsiFaceValues(t *testing.T) {
	m, q, lib := testProblem(t, 2, 1, 1, 0)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, MaxInners: 1, MaxOuters: 1, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	re := s.RefElement()
	buf := make([]float64, re.NF)
	s.PsiFaceValues(0, 0, 0, 1, buf)
	for k, node := range re.FaceNodes[1] {
		if buf[k] != s.Psi(0, 0, 0, node) {
			t.Fatalf("face gather mismatch at %d", k)
		}
	}
}
