package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
	"unsnap/internal/xs"
)

// cyclicProblem builds a genuinely cyclic twisted problem: the
// oscillating twist (3 periods at 0.8 rad on a 4^3 grid) tilts the z-face
// normals back and forth so half the SNAP ordinates' upwind graphs close
// cycles (verified by TestCyclicProblemIsCyclic).
func cyclicProblem(t *testing.T) Config {
	t.Helper()
	m, err := mesh.New(mesh.Config{NX: 4, NY: 4, NZ: 4, LX: 1, LY: 1, LZ: 1,
		Twist: 0.8, TwistPeriods: 3, MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(4)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibrary(2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh: m, Order: 1, Quad: q, Lib: lib,
		MaxInners: 3, MaxOuters: 2, ForceIterations: true,
		AllowCycles: true,
	}
}

// TestCyclicProblemIsCyclic pins the test mesh's defining property: some
// ordinate's upwind graph has a cycle, so without AllowCycles the build
// fails with sweep.ErrCycle and with it the solver reports lagged edges.
func TestCyclicProblemIsCyclic(t *testing.T) {
	cfg := cyclicProblem(t)
	cfg.AllowCycles = false
	cfg.Scheme = SchemeEngine
	if _, err := New(cfg); !errors.Is(err, sweep.ErrCycle) {
		t.Fatalf("cyclic mesh without AllowCycles should fail with ErrCycle, got %v", err)
	}

	cfg = cyclicProblem(t)
	cfg.Scheme = SchemeEngine
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Lagged() == 0 {
		t.Fatal("cyclic mesh must report lagged (cycle-broken) edges")
	}
}

// TestEngineMatchesLegacyOnCyclicMesh is the cycle-aware engine's
// acceptance test: on a cyclic twisted mesh, the counter-driven engine
// (which keeps the fused eight-octant phase) must match the legacy
// BuildWithLagging bucket path to 1e-12, iteration by iteration, at
// 1/2/4 threads — both executors lag the identical condensation edge set
// and read it from the same previous-iterate snapshot.
func TestEngineMatchesLegacyOnCyclicMesh(t *testing.T) {
	legacy := cyclicProblem(t)
	legacy.Scheme = SchemeAEg
	legacy.Threads = 1
	refPhi, refPsi := runAndSnapshot(t, legacy)

	for _, threads := range []int{1, 2, 4} {
		eng := cyclicProblem(t)
		eng.Scheme = SchemeEngine
		eng.Threads = threads
		s, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		phi, psi := snapshotSolver(s)
		s.Close()
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

// TestCyclicFeedbackArcLagsFewerEdges pins the tentpole claim at solver
// level: on the cyclic test mesh the feedback-arc cut rule demotes
// strictly fewer couplings than the element-index default, and the
// strategy joins the topology dedup key (both strategies still dedup to
// the same number of distinct topologies, each with its own lag set).
func TestCyclicFeedbackArcLagsFewerEdges(t *testing.T) {
	lagged := func(order sweep.CycleOrder) int {
		cfg := cyclicProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.CycleOrder = order
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Lagged()
	}
	ei, fa := lagged(sweep.OrderElementIndex), lagged(sweep.OrderFeedbackArc)
	if fa >= ei {
		t.Fatalf("feedback-arc must lag strictly fewer edges on the cyclic mesh: %d vs element-index %d", fa, ei)
	}
}

// TestCyclicEngineMatchesLegacyFeedbackArc is the per-strategy
// equivalence test: under OrderFeedbackArc the counter-driven engine
// (fused octants) must match the legacy BuildWithLagging bucket path to
// 1e-12, iteration by iteration, at 1/2/4 threads — exactly the pin the
// element-index rule has, because both executors consume the identical
// condensation whatever the within-SCC cut rule.
func TestCyclicEngineMatchesLegacyFeedbackArc(t *testing.T) {
	legacy := cyclicProblem(t)
	legacy.Scheme = SchemeAEg
	legacy.Threads = 1
	legacy.CycleOrder = sweep.OrderFeedbackArc
	refPhi, refPsi := runAndSnapshot(t, legacy)

	// The two strategies must genuinely differ on this mesh, or the
	// equivalence below would not be testing the feedback-arc path.
	eiLegacy := cyclicProblem(t)
	eiLegacy.Scheme = SchemeAEg
	eiLegacy.Threads = 1
	eiPhi, _ := runAndSnapshot(t, eiLegacy)
	same := true
	for i := range refPhi {
		if refPhi[i] != eiPhi[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("feedback-arc and element-index transients coincide; the strategy is not reaching the cut")
	}

	for _, threads := range []int{1, 2, 4} {
		eng := cyclicProblem(t)
		eng.Scheme = SchemeEngine
		eng.Threads = threads
		eng.CycleOrder = sweep.OrderFeedbackArc
		s, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		phi, psi := snapshotSolver(s)
		s.Close()
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

// TestCycleOrderRequiresAllowCycles pins the config contract.
func TestCycleOrderRequiresAllowCycles(t *testing.T) {
	cfg := cyclicProblem(t)
	cfg.AllowCycles = false
	cfg.CycleOrder = sweep.OrderFeedbackArc
	if _, err := New(cfg); err == nil {
		t.Fatal("CycleOrder without AllowCycles must be rejected")
	}
	cfg = cyclicProblem(t)
	cfg.CycleOrder = sweep.CycleOrder(42)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown CycleOrder must be rejected")
	}
}

// TestCyclicEngineBitwiseDeterminism runs the cyclic engine twice at 4
// threads: the ordered reduction and snapshot-based lagged reads must make
// the result bitwise reproducible despite the relaxed execution order.
func TestCyclicEngineBitwiseDeterminism(t *testing.T) {
	run := func() ([]float64, []float64) {
		cfg := cyclicProblem(t)
		cfg.Scheme = SchemeEngine
		cfg.Threads = 4
		return runAndSnapshot(t, cfg)
	}
	phi1, psi1 := run()
	phi2, psi2 := run()
	for i := range phi1 {
		if phi1[i] != phi2[i] {
			t.Fatalf("phi[%d] not bitwise reproducible: %v vs %v", i, phi1[i], phi2[i])
		}
	}
	for i := range psi1 {
		if psi1[i] != psi2[i] {
			t.Fatalf("psi[%d] not bitwise reproducible: %v vs %v", i, psi1[i], psi2[i])
		}
	}
}

// TestCyclicConvergence converges a cyclic problem (no forced
// iterations): cycle lagging is a fixed-point iteration, so the converged
// flux must be physical (positive, balanced).
func TestCyclicConvergence(t *testing.T) {
	cfg := cyclicProblem(t)
	cfg.Scheme = SchemeEngine
	cfg.Threads = 2
	cfg.ForceIterations = false
	cfg.Epsi = 1e-6
	cfg.MaxInners = 200
	cfg.MaxOuters = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("cyclic problem failed to converge: %+v", res)
	}
	if res.Balance.Residual > 1e-5 {
		t.Fatalf("converged balance residual too large: %+v", res.Balance)
	}
	if s.FluxIntegral(0) <= 0 {
		t.Fatal("converged flux integral must be positive")
	}
}

// TestCyclicLagStore pins the lag store on both cyclic problems under the
// engine (LayoutLanes) and two bucket schemes (LayoutEG, LayoutGE): it
// holds one slot of nf*nG values per (ordinate, lagged inflow face), and
// after a sweep each slot is, bit for bit, the upwind element's psi on
// that face in the downwind face-node order with the groups fastest,
// slots in ascending (ordinate, element, face) order. ResetState and
// ResetLagSnapshot zero it, and an acyclic solver holds none.
func TestCyclicLagStore(t *testing.T) {
	problems := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"cyclic", cyclicProblem},
		{"ramped4", func(t *testing.T) Config { return rampedProblem(t, 4) }},
	}
	for _, p := range problems {
		for _, scheme := range []Scheme{SchemeEngine, SchemeAEG, SchemeAGe} {
			t.Run(fmt.Sprintf("%s/%v", p.name, scheme), func(t *testing.T) {
				cfg := p.cfg(t)
				cfg.Scheme = scheme
				cfg.Threads = 2
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				nf := s.re.NF
				lagged := 0
				for a := 0; a < s.nA; a++ {
					for e := 0; e < s.nE; e++ {
						for f := 0; f < fem.NumFaces; f++ {
							if s.topos[a].Lagged != nil && s.topos[a].IsLagged(e, f) {
								lagged++
							}
						}
					}
				}
				if lagged == 0 {
					t.Fatal("cyclic problem lags no face")
				}
				if want := lagged * nf * s.nG; len(s.lag) != want {
					t.Fatalf("lag store holds %d values, want %d", len(s.lag), want)
				}
				sweep := func() {
					s.ComputeOuterSource()
					s.PrepareInner()
					if err := s.SweepAllAngles(); err != nil {
						t.Fatal(err)
					}
				}
				sweep()
				slot := 0
				nonzero := false
				for a := 0; a < s.nA; a++ {
					for e := 0; e < s.nE; e++ {
						for f := 0; f < fem.NumFaces; f++ {
							if s.topos[a].Lagged == nil || !s.topos[a].IsLagged(e, f) {
								continue
							}
							fc := s.cfg.Mesh.Elems[e].Faces[f]
							nb := s.re.FaceNodes[fc.NeighborFace]
							for l := 0; l < nf; l++ {
								for g := 0; g < s.nG; g++ {
									got := s.lag[(slot*nf+l)*s.nG+g]
									want := s.Psi(a, fc.Neighbor, g, nb[s.conn.Perm[e][f][l]])
									if math.Float64bits(got) != math.Float64bits(want) {
										t.Fatalf("angle %d elem %d face %d node %d group %d: slot %v, upwind psi %v", a, e, f, l, g, got, want)
									}
									nonzero = nonzero || got != 0
								}
							}
							slot++
						}
					}
				}
				if !nonzero {
					t.Fatal("every slot is zero after a sweep")
				}
				allZero := func(when string) {
					for i, v := range s.lag {
						if v != 0 {
							t.Fatalf("after %s: lag[%d] = %v, want 0", when, i, v)
						}
					}
				}
				s.ResetState()
				allZero("ResetState")
				sweep()
				s.ResetLagSnapshot()
				allZero("ResetLagSnapshot")
			})
		}
	}

	cfg := engineProblem(t)
	cfg.Scheme = SchemeEngine
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.lag != nil || s.lagOff != nil {
		t.Fatalf("acyclic solver holds a lag store of %d values", len(s.lag))
	}
}
