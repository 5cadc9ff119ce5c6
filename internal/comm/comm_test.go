package comm

import (
	"math"
	"testing"

	"unsnap/internal/core"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

func testParts(t *testing.T, n, groups, nang int, twist float64) (*mesh.Mesh, *quadrature.Set, *xs.Library) {
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

func TestNewInvalid(t *testing.T) {
	m, q, lib := testParts(t, 4, 1, 1, 0)
	if _, err := New(Config{Mesh: nil, PY: 1, PZ: 1,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib}}); err == nil {
		t.Fatal("expected error for nil mesh")
	}
	if _, err := New(Config{Mesh: m, PY: 0, PZ: 1,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib}}); err == nil {
		t.Fatal("expected error for bad rank grid")
	}
	if _, err := New(Config{Mesh: m, PY: 1, PZ: 1,
		Rank: core.Config{Order: 1, Quad: nil, Lib: lib}}); err == nil {
		t.Fatal("expected error for nil quadrature")
	}
	if _, err := New(Config{Mesh: m, PY: 1, PZ: 1,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Reflect: [3]bool{true, false, false}}}); err == nil {
		t.Fatal("expected error for a reflective rank template")
	}
}

func TestSingleRankMatchesSingleDomain(t *testing.T) {
	m, q, lib := testParts(t, 3, 2, 2, 0.002)
	d, err := New(Config{Mesh: m, PY: 1, PZ: 1,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeAEG, MaxInners: 3, MaxOuters: 2, ForceIterations: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumRanks() != 1 {
		t.Fatalf("got %d ranks, want 1", d.NumRanks())
	}
	dres, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}

	m2, q2, lib2 := testParts(t, 3, 2, 2, 0.002)
	s, err := core.New(core.Config{Mesh: m2, Order: 1, Quad: q2, Lib: lib2,
		Scheme: core.SchemeAEG, MaxInners: 3, MaxOuters: 2, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		a := d.FluxIntegral(g)
		b := s.FluxIntegral(g)
		if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
			t.Fatalf("group %d: 1-rank driver %v != single domain %v", g, a, b)
		}
	}
	if dres.Inners != 6 {
		t.Fatalf("forced iterations: got %d inners, want 6", dres.Inners)
	}
}

func TestMultiRankConvergesWithBalance(t *testing.T) {
	m, q, lib := testParts(t, 4, 2, 2, 0.001)
	d, err := New(Config{Mesh: m, PY: 2, PZ: 2,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeAEG, Epsi: 1e-9, MaxInners: 400, MaxOuters: 60}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumRanks() != 4 {
		t.Fatalf("got %d ranks, want 4", d.NumRanks())
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge, df=%v", res.FinalDF)
	}
	// A converged block Jacobi solution must close the global balance —
	// this validates the entire halo exchange path.
	if res.Balance.Residual > 1e-6 {
		t.Fatalf("global balance residual %v: %+v", res.Balance.Residual, res.Balance)
	}
}

func TestMultiRankMatchesSingleDomainSolution(t *testing.T) {
	run := func(py, pz int) float64 {
		m, q, lib := testParts(t, 4, 1, 1, 0)
		d, err := New(Config{Mesh: m, PY: py, PZ: pz,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeAEG, Epsi: 1e-10, MaxInners: 500, MaxOuters: 50}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%dx%d did not converge", py, pz)
		}
		return d.FluxIntegral(0)
	}
	single := run(1, 1)
	multi := run(2, 2)
	if math.Abs(single-multi) > 1e-6*(1+math.Abs(single)) {
		t.Fatalf("block Jacobi fixed point differs: %v vs %v", multi, single)
	}
}

func TestJacobiConvergenceDegradesWithRanks(t *testing.T) {
	// The paper (citing Garrett) notes block Jacobi converges more slowly
	// as the number of blocks grows; with more ranks the iteration count
	// must not decrease.
	iters := func(py, pz int) int {
		m, q, lib := testParts(t, 4, 1, 1, 0)
		d, err := New(Config{Mesh: m, PY: py, PZ: pz,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeAEG, Epsi: 1e-8, MaxInners: 500, MaxOuters: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Inners
	}
	one := iters(1, 1)
	four := iters(2, 2)
	if four < one {
		t.Fatalf("4-rank Jacobi converged faster than 1 rank: %d vs %d inners", four, one)
	}
	if four == one {
		t.Logf("note: 4-rank and 1-rank used the same inner count (%d); degradation not visible at this scale", one)
	}
}

func TestDistributedSchemesAgree(t *testing.T) {
	run := func(scheme core.Scheme) float64 {
		m, q, lib := testParts(t, 4, 2, 1, 0.001)
		d, err := New(Config{Mesh: m, PY: 2, PZ: 2,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: scheme, Threads: 2, MaxInners: 3, MaxOuters: 1, ForceIterations: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return d.FluxIntegral(0)
	}
	ref := run(core.SchemeAEG)
	for _, scheme := range []core.Scheme{core.SchemeAEg, core.SchemeAGE, core.SchemeAGe} {
		if got := run(scheme); math.Abs(got-ref) > 1e-12*(1+math.Abs(ref)) {
			t.Fatalf("scheme %v under block Jacobi diverges: %v vs %v", scheme, got, ref)
		}
	}
}

func TestGlobalBalanceExcludesInternalFaces(t *testing.T) {
	// Cross-rank faces are internal transfers, not leakage: each rank's
	// balance skips its External faces, so the ranks' leakage sums to
	// GlobalBalance's and to the single-domain solver's, whose balance
	// closes.
	m, q, lib := testParts(t, 4, 1, 1, 0)
	rank := core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeAEG, Epsi: 1e-9, MaxInners: 300, MaxOuters: 1}
	d, err := New(Config{Mesh: m, PY: 2, PZ: 1, Rank: rank})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for r := 0; r < d.NumRanks(); r++ {
		sum += d.Rank(r).ComputeBalance().Leakage
	}
	global := d.GlobalBalance()
	if sum != global.Leakage {
		t.Fatalf("rank leakages sum to %v, GlobalBalance reports %v", sum, global.Leakage)
	}
	single := rank
	single.Mesh = m
	s, err := core.New(single)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Balance.Leakage; math.Abs(global.Leakage-want) > 1e-6*want {
		t.Fatalf("global leakage %v, single domain %v: cross-rank faces counted as leakage", global.Leakage, want)
	}
}
