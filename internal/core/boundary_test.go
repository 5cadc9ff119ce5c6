package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

func TestMirrorAngle(t *testing.T) {
	q, _ := quadrature.NewSNAP(3)
	for a := range q.Angles {
		for d := 0; d < 3; d++ {
			ma := q.MirrorAngle(a, d)
			want := q.Angles[a].Omega
			want[d] = -want[d]
			if q.Angles[ma].Omega != want {
				t.Fatalf("mirror of angle %d in dim %d: got %v want %v",
					a, d, q.Angles[ma].Omega, want)
			}
			if q.MirrorAngle(ma, d) != a {
				t.Fatalf("mirror is not an involution for angle %d dim %d", a, d)
			}
		}
	}
}

// TestInfiniteMediumReflective: with reflective boundaries on all six
// faces, a homogeneous material and a uniform source, the transport
// equation has the exact infinite-medium solution phi = q / sigma_a
// (constant, isotropic, in every group when groups are uncoupled). The DG
// space contains constants, so the converged solution must match to
// iteration tolerance — an end-to-end validation of the reflective
// boundary, the scattering source and the iteration.
func TestInfiniteMediumReflective(t *testing.T) {
	m, err := mesh.New(mesh.Config{NX: 2, NY: 2, NZ: 2, LX: 1, LY: 1, LZ: 1,
		Twist: 0, MatOpt: xs.MatOptHomogeneous, SrcOpt: xs.SrcOptEverywhere})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := quadrature.NewSNAP(2)
	// Homogeneous single group with scattering: sigma_a = 0.5, sigma_s =
	// 0.5 (material 1 everywhere). phi_exact = q / sigma_a = 1 / 0.5 = 2.
	lib, _ := xs.NewLibrary(1)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-11, MaxInners: 400, MaxOuters: 5,
		Reflect: [3]bool{true, true, true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: df=%v", res.FinalDF)
	}
	want := 1.0 / lib.Absorb[xs.Mat1][0]
	for e := 0; e < s.NumElems(); e++ {
		for i := 0; i < s.NumNodes(); i++ {
			got := s.Phi(e, 0, i)
			if math.Abs(got-want) > 1e-7*want {
				t.Fatalf("infinite medium flux at elem %d node %d: %v, want %v", e, i, got, want)
			}
		}
	}
	// Balance with reflective faces excluded: absorption == source.
	b := s.ComputeBalance()
	if math.Abs(b.Absorption-b.Source) > 1e-6*b.Source {
		t.Fatalf("reflective balance: absorption %v != source %v", b.Absorption, b.Source)
	}
}

// TestReflectiveSymmetryPlane: reflecting only the x faces of a problem
// that is x-symmetric must reproduce the full-domain solution of a domain
// twice as wide (mirror symmetry), here checked via the cheaper property
// that flux increases over the vacuum-everywhere problem.
func TestReflectiveRaisesFlux(t *testing.T) {
	build := func(reflect [3]bool) float64 {
		m, _ := mesh.New(mesh.Config{NX: 3, NY: 3, NZ: 3, LX: 1, LY: 1, LZ: 1,
			Twist: 0, MatOpt: xs.MatOptHomogeneous, SrcOpt: xs.SrcOptEverywhere})
		q, _ := quadrature.NewSNAP(2)
		lib, _ := xs.NewLibrary(1)
		s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: SchemeAEG, Epsi: 1e-9, MaxInners: 300, MaxOuters: 1, Reflect: reflect})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.FluxIntegral(0)
	}
	vacuum := build([3]bool{})
	reflected := build([3]bool{true, false, false})
	if reflected <= vacuum {
		t.Fatalf("reflective boundaries should raise the flux: %v vs %v", reflected, vacuum)
	}
}

// TestReflectiveMultigroup verifies the infinite-medium limit with group
// coupling: with reflective walls everywhere the per-group balance
// (absorption + net out-scatter = source + net in-scatter) has the
// analytic solution of the group-coupled infinite-medium system; here we
// verify total absorption equals total source, which holds whenever the
// outer iteration converged.
func TestReflectiveMultigroup(t *testing.T) {
	m, _ := mesh.New(mesh.Config{NX: 2, NY: 2, NZ: 2, LX: 1, LY: 1, LZ: 1,
		Twist: 0, MatOpt: xs.MatOptHomogeneous, SrcOpt: xs.SrcOptEverywhere})
	q, _ := quadrature.NewSNAP(1)
	lib, _ := xs.NewLibrary(3)
	s, err := New(Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: SchemeAEG, Epsi: 1e-10, MaxInners: 300, MaxOuters: 100,
		Reflect: [3]bool{true, true, true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: df=%v", res.FinalDF)
	}
	b := s.ComputeBalance()
	if math.Abs(b.Absorption-b.Source) > 1e-5*b.Source {
		t.Fatalf("multigroup reflective balance: absorption %v != source %v",
			b.Absorption, b.Source)
	}
}

// TestReflectiveFluxDigest pins reflective solves to the inner counts and
// flux digests the sequential-octant engine and the legacy AEG executor
// produced before reflection joined the fused task graph: engineProblem,
// p1Problem, timedepProblem and cyclicProblem, reflecting x, xz and xyz,
// each under the engine's batched and scalar kernels (one digest: they are
// bitwise equal) and under AEG, at 1 and 3 threads. The move into the
// fused graph changed no bit. The cyclic rows were recorded again when a
// later-octant mirror on a cyclic mesh started reading the previous sweep
// instead of the sweep before last; see TestReflectiveCyclicLag.
func TestReflectiveFluxDigest(t *testing.T) {
	want := map[string]string{
		"engine/x/engine":    "6/8d657808b48819591751c5ca1ab184f4b39319562a430859c8ab2ddb981336d9",
		"engine/x/aeg":       "6/c02348dfd5fa22caf8259c363d725f6f7748e0439e7e74faf23bae11e6a0c5ec",
		"engine/xz/engine":   "6/11eb26eeef37478b9efe653ec1dbd86bb6551bdd2a4b4bcaec5248b844cee9e2",
		"engine/xz/aeg":      "6/e3bc0380b211e51121a661ec6c017e2c70d53f0be6ffc3aa700fa29690dc42ee",
		"engine/xyz/engine":  "6/5f09a4200a0b1b7220e31eaf35388343eef44864a0dcb4d4f19ddf62f0e46ea8",
		"engine/xyz/aeg":     "6/5e94f195d0f2e2c84aeb8e2d3d84dbedd8538c3ee808d9cb1bbd55783fd93559",
		"p1/x/engine":        "6/4df850d9e6ff0b664e58cd657595b0db48cb579b0ce400c648a898468afd372a",
		"p1/x/aeg":           "6/42d0a3b6d139aae2083f3ecdec8359b4cc11202e6bd43601d1cf0bdef9ed1bf7",
		"p1/xz/engine":       "6/a4e2f07943fe9921e7efd50f150054e2d92834be5eb1b1b0bac0ca6a18ba96c5",
		"p1/xz/aeg":          "6/17ce698962e7ea0368564ce4d2135d5ba7c7abaa71500ab460373ab59ae11aa0",
		"p1/xyz/engine":      "6/2fe31a29342aed11474b0ab338fa05e84b2f5b7932b0ac22f61ffc5f1e81ba5d",
		"p1/xyz/aeg":         "6/2e03c38405600c6b7125004ec0cf848f5b2f691a950f3c5ea7b776123cdb7e0a",
		"timedep/x/engine":   "4/8cfaf5cd9ccdaf9539f5ad6c8582b7a8586e733f605c8097e0389580fa6a4512",
		"timedep/x/aeg":      "4/49d6d1b22c460a12d1665f89307194a7b6e793482e34e3f8e8498eb2efb60dde",
		"timedep/xz/engine":  "4/1d9640df31d3e21a1cb39a396fa22f6da3aacf919a1e890769b08e60148c5fe5",
		"timedep/xz/aeg":     "4/040ea95fb8d4fa98270aa3ebe7de1e8e6b88728500e311e38761c67d423493f4",
		"timedep/xyz/engine": "4/8490f8759882eafe477b181d9de660e3a0c31f8d6a17d76d36de29665aae45f3",
		"timedep/xyz/aeg":    "4/ca8de9d7778b9307b1f9c134e47fe2ecc429fa9543dc48df063d014ef929d1aa",
		"cyclic/x/engine":    "6/d1543257a32798baf1d3a420863d744f842110b1a06d2bf3158a9d3b28d572a0",
		"cyclic/x/aeg":       "6/fcc676d5b227cbc6b819de07447c27e755eb12ebd58eb3c489b7864bac90ea5c",
		"cyclic/xz/engine":   "6/a84df857abdfd1cc1a9715c0a53b062566ad4c160e86aff74af0f92961948332",
		"cyclic/xz/aeg":      "6/ebe941feef6a1d99d066bba994c01705e87c27fe771ad3693a410b3fdb3a8b19",
		"cyclic/xyz/engine":  "6/0d142dd5fd21122ab770f7eee9883e69acb89939d99166e714989abaeb762440",
		"cyclic/xyz/aeg":     "6/1a536da104e58cc83b8580c8725a262b5ada707c814a38d0a90ef3054c4737c2",
	}
	problems := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{{"engine", engineProblem}, {"p1", p1Problem}, {"timedep", timedepProblem}, {"cyclic", cyclicProblem}}
	reflects := []struct {
		name string
		dims [3]bool
	}{{"x", [3]bool{true, false, false}}, {"xz", [3]bool{true, false, true}}, {"xyz", [3]bool{true, true, true}}}
	execs := []struct {
		family string
		scheme Scheme
		kernel KernelMode
	}{{"engine", SchemeEngine, KernelBatched}, {"engine", SchemeEngine, KernelScalar}, {"aeg", SchemeAEG, KernelBatched}}
	for _, p := range problems {
		for _, r := range reflects {
			for _, x := range execs {
				for _, threads := range []int{1, 3} {
					cfg := p.cfg(t)
					cfg.Scheme, cfg.Kernel, cfg.Threads, cfg.Reflect = x.scheme, x.kernel, threads, r.dims
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					inners := 0
					if cfg.Time != nil {
						steps, err := s.RunTimeDependent(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						for _, st := range steps {
							inners += st.Inners
						}
					} else {
						res, err := s.Run()
						if err != nil {
							t.Fatal(err)
						}
						inners = res.Inners
					}
					phi, psi := snapshotSolver(s)
					s.Close()
					key := p.name + "/" + r.name + "/" + x.family
					if got := fmt.Sprintf("%d/%s", inners, fluxDigest(phi, psi)); got != want[key] {
						t.Errorf("%s %v threads=%d: inners/digest %s, want %s", key, x.kernel, threads, got, want[key])
					}
				}
			}
		}
	}
}

// TestReflectiveCyclicLag pins the reflective lag on a cyclic mesh to one
// sweep: a mirror in a later octant reads the previous sweep's flux from
// psi, as on an acyclic mesh, not the sweep before last.
// Reading the older iterate (lag2) converged to the same flux more
// slowly, in 267 inners reflecting x and 720 reflecting xyz; its flux
// integrals must still agree within the outer tolerance, 10 Epsi.
func TestReflectiveCyclicLag(t *testing.T) {
	cases := []struct {
		dims       [3]bool
		inners     int
		flux, lag2 [2]float64
	}{
		{[3]bool{true, false, false}, 159,
			[2]float64{0.41475184644116553, 0.46413230571091907},
			[2]float64{0.41475184642979784, 0.4641323056609325}},
		{[3]bool{true, true, true}, 500,
			[2]float64{1.4160095535180937, 1.9460075802480745},
			[2]float64{1.4160095494837395, 1.9460075600104063}},
	}
	for _, c := range cases {
		cfg := cyclicProblem(t)
		cfg.Scheme, cfg.Threads, cfg.Reflect = SchemeAEG, 1, c.dims
		cfg.ForceIterations = false
		cfg.Epsi, cfg.MaxInners, cfg.MaxOuters = 1e-8, 5000, 20
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Inners != c.inners {
			t.Errorf("reflect %v: converged %v in %d inners, want %d", c.dims, res.Converged, res.Inners, c.inners)
		}
		for g := range c.flux {
			got := s.FluxIntegral(g)
			if math.Abs(got-c.flux[g]) > 1e-12*c.flux[g] {
				t.Errorf("reflect %v: group %d flux integral %.17g, want %.17g", c.dims, g, got, c.flux[g])
			}
			if math.Abs(got-c.lag2[g]) > 10*cfg.Epsi*c.lag2[g] {
				t.Errorf("reflect %v: group %d flux integral %.17g, two-sweep lag converged to %.17g", c.dims, g, got, c.lag2[g])
			}
		}
	}
}
