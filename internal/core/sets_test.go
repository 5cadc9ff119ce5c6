package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"unsnap/internal/build"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// setWidths lists the set widths of one octant's ordinates, in order.
func setWidths(s *Solver, octant int) []int32 {
	var w []int32
	for _, as := range s.sets {
		if s.cfg.Quad.Angles[as.a0].Octant == octant {
			w = append(w, as.s)
		}
	}
	return w
}

// expectedCut is the greedy cut of a run of nang ordinates sharing one
// topology, at most maxSetLanes lanes per set: widths of 4, then 2, then 1.
func expectedCut(nang, nG int) []int32 {
	maxS := max(1, maxSetLanes/nG)
	var w []int32
	for nang > 0 {
		s := 4
		for s > nang || s > maxS {
			s /= 2
		}
		w = append(w, int32(s))
		nang -= s
	}
	return w
}

// angleSetConfig is a 3^3 order-1 problem of nang angles per octant and
// nG groups on one of the boundary kinds of TestKernelAngleSets.
func angleSetConfig(t *testing.T, nG, nang int, bc string) Config {
	t.Helper()
	mc := mesh.Config{NX: 3, NY: 3, NZ: 3, LX: 1, LY: 1, LZ: 1, Twist: 0.002,
		MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere}
	if bc == "cyclic" {
		mc.Twist, mc.TwistPeriods = 0.8, 1
	}
	m, err := mesh.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(nang)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := xs.NewLibrary(nG)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: m, Order: 1, Quad: q, Lib: lib, Scheme: SchemeEngine, Threads: 2,
		MaxInners: 2, MaxOuters: 1, ForceIterations: true, AllowCycles: bc == "cyclic"}
	if bc == "reflect-x" {
		cfg.Reflect = [3]bool{true, false, false}
	}
	return cfg
}

// runAngleSets solves one configuration under kernel k and returns the
// flux snapshot and the solver's set widths per octant; bc "inflow"
// prescribes a non-uniform inflow on the whole boundary (newWithInflow).
func runAngleSets(t *testing.T, cfg Config, bc string, k KernelMode, noCache bool) (phi, psi []float64, widths [8][]int32) {
	t.Helper()
	cfg.Kernel = k
	cfg.noFactorCache = noCache
	var s *Solver
	if bc == "inflow" {
		s = newWithInflow(t, cfg, func(ef ExternalFace, a int, slot []float64) {
			for i := range slot {
				slot[i] = 0.5 + float64((ef.Elem*5+ef.Face*3+a*7+i)%13)/8
			}
		})
	} else {
		var err error
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
	}
	if (s.fc == nil) != noCache {
		t.Fatalf("uncached %v: factor store %v", noCache, s.fc)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for o := range widths {
		widths[o] = setWidths(s, o)
	}
	phi, psi = snapshotSolver(s)
	return phi, psi, widths
}

// TestKernelAngleSets runs one- and two-group problems of 1, 2, 3, 4 and
// 6 angles per octant — sets of 1, 2, 2+1, 4 (two groups: 2+2) and 4+2
// (2+2+2) ordinates — on every boundary kind a set task reads upwind
// values from: vacuum, a reflective x face (mirror sets), a cyclic mesh
// (lagged couplings through the lag store) and a prescribed inflow on External
// faces. The batched flux, cached and uncached, must equal the scalar
// kernel's bit for bit, and every octant must be cut greedily where its
// ordinates share one topology (the mildly twisted mesh) and follow the
// topology pointers where they do not (the cyclic one).
func TestKernelAngleSets(t *testing.T) {
	for _, nG := range []int{1, 2} {
		for _, nang := range []int{1, 2, 3, 4, 6} {
			for _, bc := range []string{"vacuum", "reflect-x", "cyclic", "inflow"} {
				t.Run(fmt.Sprintf("g%d/a%d/%s", nG, nang, bc), func(t *testing.T) {
					cfg := angleSetConfig(t, nG, nang, bc)
					refPhi, refPsi, _ := runAngleSets(t, cfg, bc, KernelScalar, true)
					want := fluxDigest(refPhi, refPsi)
					var widths [8][]int32
					for _, noCache := range []bool{true, false} {
						phi, psi, w := runAngleSets(t, angleSetConfig(t, nG, nang, bc), bc, KernelBatched, noCache)
						if got := fluxDigest(phi, psi); got != want {
							for i := range refPsi {
								if math.Float64bits(psi[i]) != math.Float64bits(refPsi[i]) {
									t.Fatalf("uncached %v: psi[%d] batched %v, scalar %v (not bitwise)", noCache, i, psi[i], refPsi[i])
								}
							}
							t.Fatalf("uncached %v: flux digest %s, scalar %s", noCache, got, want)
						}
						widths = w
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					for o := range widths {
						var want []int32
						if bc == "cyclic" {
							want = topologyCut(s, o)
						} else {
							want = expectedCut(nang, nG)
						}
						if !slices.Equal(widths[o], want) {
							t.Fatalf("octant %d: set widths %v, want %v", o, widths[o], want)
						}
					}
				})
			}
		}
	}
}

// topologyCut is the expected cut of one octant from its topology
// pointers: each run of consecutive ordinates with one topology cut
// greedily (expectedCut).
func topologyCut(s *Solver, octant int) []int32 {
	q := s.cfg.Quad
	var w []int32
	for m := 0; m < q.PerOctant; {
		a := q.AngleIndex(octant, m)
		run := 1
		for m+run < q.PerOctant && s.topos[a+run] == s.topos[a] {
			run++
		}
		w = append(w, expectedCut(run, s.nG)...)
		m += run
	}
	return w
}

// TestAngleSetMirrorFallback: under Config.Reflect a set whose mirror
// ordinates do not form a set is split into single ordinates — and so,
// in turn, is every set whose mirror was split — while sets whose
// mirrors are sets keep their width. The topologies are synthetic: only
// their pointers matter to the cut.
func TestAngleSetMirrorFallback(t *testing.T) {
	q, err := quadrature.NewSNAP(2)
	if err != nil {
		t.Fatal(err)
	}
	topos := make([]*build.Topology, q.NumAngles())
	for o := 0; o < 8; o++ {
		shared := &build.Topology{}
		for m := 0; m < q.PerOctant; m++ {
			topos[q.AngleIndex(o, m)] = shared
		}
	}
	// Octant 1 is octant 0 mirrored in x; its two ordinates get distinct
	// topologies, so it cuts 1+1 and octant 0's pair loses its mirror.
	topos[q.AngleIndex(1, 1)] = &build.Topology{}
	for _, tc := range []struct {
		reflect [3]bool
		split   []int // octants cut into single ordinates
	}{
		{[3]bool{}, []int{1}},
		{[3]bool{true, false, false}, []int{0, 1}},
		{[3]bool{false, true, false}, []int{1, 3}}, // octant 3 mirrors octant 1 in y
		{[3]bool{true, true, true}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		cfg := Config{Quad: q, Scheme: SchemeEngine, Reflect: tc.reflect}
		sets, setOf := buildAngleSets(&cfg, topos, 1)
		for o := 0; o < 8; o++ {
			want := int32(2)
			if slices.Contains(tc.split, o) {
				want = 1
			}
			for m := 0; m < q.PerOctant; m++ {
				a := q.AngleIndex(o, m)
				if got := sets[setOf[a]].s; got != want {
					t.Fatalf("reflect %v: octant %d ordinate %d in a set of %d, want %d", tc.reflect, o, a, got, want)
				}
			}
		}
	}
	// Outside the engine, and under PreAssembled, every set is one ordinate.
	for _, cfg := range []Config{{Quad: q, Scheme: SchemeAEg}, {Quad: q, Scheme: SchemeEngine, PreAssembled: true}} {
		if sets, _ := buildAngleSets(&cfg, topos, 1); len(sets) != q.NumAngles() {
			t.Fatalf("%v (pre-assembled %v): %d sets, want one per ordinate", cfg.Scheme, cfg.PreAssembled, len(sets))
		}
	}
}

// TestAngleSetSweepAllocFree holds self-driven, armed and reflective
// sweeps of one-group problems with sets of one, two and four ordinates
// to zero steady-state allocations, cached and uncached.
func TestAngleSetSweepAllocFree(t *testing.T) {
	for _, nang := range []int{1, 2, 4} {
		for _, noCache := range []bool{false, true} {
			cfg := angleSetConfig(t, 1, nang, "vacuum")
			cfg.Threads = 1
			cfg.noFactorCache = noCache
			re, err := fem.NewRefElement(1)
			if err != nil {
				t.Fatal(err)
			}
			ext := boundaryExternals(cfg.Mesh, re)
			armed := cfg
			armed.External = ext
			reflective := cfg
			reflective.Reflect = [3]bool{true, true, true}
			for _, c := range []Config{cfg, armed, reflective} {
				s, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				if got := s.maxSetWidth(); got != nang {
					t.Fatalf("%d angles per octant: widest set %d", nang, got)
				}
				sweep := func() {
					s.PrepareInner()
					if c.External == nil {
						if err := s.SweepAllAngles(); err != nil {
							t.Fatal(err)
						}
						return
					}
					if err := s.ArmSweep(); err != nil {
						t.Fatal(err)
					}
					for a, ang := range c.Quad.Angles {
						for _, ef := range c.External {
							if ExternalInflow(ang.Omega, ef.Normal, ef.Canonical) {
								s.ResolveExternal(a, ef.Elem)
							}
						}
					}
					if err := s.FinishSweep(); err != nil {
						t.Fatal(err)
					}
				}
				s.ComputeOuterSource()
				sweep() // warm-up: builds the engine
				if avg := testing.AllocsPerRun(5, sweep); avg != 0 {
					t.Fatalf("%d angles per octant, uncached %v, external %v, reflect %v: %.1f allocations per sweep, want 0",
						nang, noCache, c.External != nil, c.Reflect, avg)
				}
				s.Close()
			}
		}
	}
}
