package comm

import (
	"math"
	"testing"

	"unsnap/internal/core"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
	"unsnap/internal/xs"
)

// cyclicParts builds the genuinely cyclic twisted problem the cross-rank
// cycle tests run on (the oscillating twist closes upwind cycles for half
// the SNAP ordinates; see the core package's cyclic tests).
func cyclicParts(t *testing.T) (*mesh.Mesh, *quadrature.Set, *xs.Library) {
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
	return m, q, lib
}

// TestPipelinedRejectsCyclicWithoutAllowCycles preserves the build-time
// guarantee: a cyclic mesh without AllowCycles must fail up front, not
// deadlock mid-sweep.
func TestPipelinedRejectsCyclicWithoutAllowCycles(t *testing.T) {
	m, q, lib := cyclicParts(t)
	_, err := New(Config{Mesh: m, PY: 2, PZ: 1, Protocol: Pipelined,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine}})
	if err == nil {
		t.Fatal("cyclic mesh without AllowCycles must be rejected")
	}
}

// TestPipelinedCyclicMatchesSingleDomain is the cycle-aware protocol's
// acceptance test: on a cyclic twisted mesh with AllowCycles, a
// convergence-gated pipelined run must reproduce the single-domain
// cycle-aware solve exactly — iteration counts, per-inner flux changes
// and pointwise flux to 1e-12 — at 2 and 4 ranks, with the fused octant
// phase intact and the cross-rank lagged channel actually exercised.
func TestPipelinedCyclicMatchesSingleDomain(t *testing.T) {
	const epsi = 1e-6
	m, q, lib := cyclicParts(t)
	ss, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true,
		Epsi: epsi, MaxInners: 50, MaxOuters: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sres, err := ss.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Lagged() == 0 {
		t.Fatal("reference problem must actually be cyclic")
	}

	// 1x1 pins the CycleLag-distributed decisions against the single
	// domain's own condensation; the Y-splits cut the cycles of this mesh
	// (they ring around the twist axis), so 2 and 4 ranks both carry
	// cross-rank lagged transfers.
	for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		m, q, lib := cyclicParts(t)
		d, err := New(Config{Mesh: m, PY: grid[0], PZ: grid[1], Protocol: Pipelined,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true, Epsi: epsi, MaxInners: 50, MaxOuters: 8}})
		if err != nil {
			t.Fatal(err)
		}
		crossLag := 0
		for _, ed := range d.pipe.edges {
			crossLag += ed.lag
		}
		if grid != ([2]int{1, 1}) && crossLag == 0 {
			t.Fatalf("%dx%d ranks: expected the partition to cut some cycles (no cross-rank lagged transfers)", grid[0], grid[1])
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inners != sres.Inners || res.Outers != sres.Outers || res.Converged != sres.Converged {
			t.Fatalf("%dx%d ranks: %d inners / %d outers / conv=%v, single domain %d / %d / %v",
				grid[0], grid[1], res.Inners, res.Outers, res.Converged, sres.Inners, sres.Outers, sres.Converged)
		}
		for i, df := range res.DFHistory {
			if rel := math.Abs(df-sres.DFHistory[i]) / (1 + math.Abs(sres.DFHistory[i])); rel > 1e-12 {
				t.Fatalf("%dx%d ranks: inner %d df %v vs single %v", grid[0], grid[1], i, df, sres.DFHistory[i])
			}
		}
		for r := 0; r < d.NumRanks(); r++ {
			sub := d.part.Subs[r]
			rs := d.Rank(r)
			for le, ge := range sub.Global {
				for g := 0; g < 2; g++ {
					for n := 0; n < rs.NumNodes(); n++ {
						a, b := rs.Phi(le, g, n), ss.Phi(ge, g, n)
						if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
							t.Fatalf("%dx%d ranks: rank %d elem %d (global %d) g %d n %d: %v vs %v",
								grid[0], grid[1], r, le, ge, g, n, a, b)
						}
					}
				}
			}
		}
		d.Close()
	}
}

// TestPipelinedCyclicFeedbackArcMatchesSingleDomain is the per-strategy
// distributed equivalence pin: under OrderFeedbackArc — whose lag set is
// computed by the same greedy peeling over global element ids on every
// layer — a convergence-gated pipelined run must reproduce the
// single-domain cycle-aware solve exactly (iteration counts, per-inner
// flux changes, pointwise flux to 1e-12) at 2 and 4 ranks, with
// cross-rank lagged transfers actually exercised.
func TestPipelinedCyclicFeedbackArcMatchesSingleDomain(t *testing.T) {
	const epsi = 1e-6
	m, q, lib := cyclicParts(t)
	ss, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true,
		CycleOrder: sweep.OrderFeedbackArc,
		Epsi:       epsi, MaxInners: 50, MaxOuters: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sres, err := ss.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Lagged() == 0 {
		t.Fatal("reference problem must actually be cyclic")
	}

	for _, grid := range [][2]int{{2, 1}, {2, 2}} {
		m, q, lib := cyclicParts(t)
		d, err := New(Config{Mesh: m, PY: grid[0], PZ: grid[1], Protocol: Pipelined,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true, CycleOrder: sweep.OrderFeedbackArc, Epsi: epsi, MaxInners: 50, MaxOuters: 8}})
		if err != nil {
			t.Fatal(err)
		}
		crossLag := 0
		for _, ed := range d.pipe.edges {
			crossLag += ed.lag
		}
		if crossLag == 0 {
			t.Fatalf("%dx%d ranks: expected cross-rank lagged transfers under feedback-arc", grid[0], grid[1])
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inners != sres.Inners || res.Outers != sres.Outers || res.Converged != sres.Converged {
			t.Fatalf("%dx%d ranks: %d inners / %d outers / conv=%v, single domain %d / %d / %v",
				grid[0], grid[1], res.Inners, res.Outers, res.Converged, sres.Inners, sres.Outers, sres.Converged)
		}
		for i, df := range res.DFHistory {
			if rel := math.Abs(df-sres.DFHistory[i]) / (1 + math.Abs(sres.DFHistory[i])); rel > 1e-12 {
				t.Fatalf("%dx%d ranks: inner %d df %v vs single %v", grid[0], grid[1], i, df, sres.DFHistory[i])
			}
		}
		for r := 0; r < d.NumRanks(); r++ {
			sub := d.part.Subs[r]
			rs := d.Rank(r)
			for le, ge := range sub.Global {
				for g := 0; g < 2; g++ {
					for n := 0; n < rs.NumNodes(); n++ {
						a, b := rs.Phi(le, g, n), ss.Phi(ge, g, n)
						if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
							t.Fatalf("%dx%d ranks: rank %d elem %d (global %d) g %d n %d: %v vs %v",
								grid[0], grid[1], r, le, ge, g, n, a, b)
						}
					}
				}
			}
		}
		d.Close()
	}
}

// TestLaggedProtocolCyclicFeedbackArc checks the block Jacobi baseline
// under the feedback-arc rule (each rank condenses its own subdomain with
// the same strategy): it must converge to the single-domain fixed point.
func TestLaggedProtocolCyclicFeedbackArc(t *testing.T) {
	const epsi = 1e-6
	m, q, lib := cyclicParts(t)
	ss, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true,
		CycleOrder: sweep.OrderFeedbackArc,
		Epsi:       epsi, MaxInners: 100, MaxOuters: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	want := ss.FluxIntegral(0)

	m, q, lib = cyclicParts(t)
	d, err := New(Config{Mesh: m, PY: 2, PZ: 1, Protocol: Lagged,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true, CycleOrder: sweep.OrderFeedbackArc, Epsi: epsi, MaxInners: 100, MaxOuters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("lagged cyclic feedback-arc run failed to converge: %+v", res)
	}
	if got := d.FluxIntegral(0); math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
		t.Fatalf("lagged flux integral %v too far from single domain %v", got, want)
	}
}

// TestPipelinedCyclicForcedFreeRun exercises the barrier-free forced path
// on the cyclic mesh (ranks overlap inner iterations; lagged cross-rank
// batches are consumed one sweep late under free-running overlap) at
// 1, 2 and 4 worker threads per rank.
func TestPipelinedCyclicForcedFreeRun(t *testing.T) {
	m, q, lib := cyclicParts(t)
	ss, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true,
		MaxInners: 4, MaxOuters: 2, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	want := ss.FluxIntegral(0)

	for _, threads := range []int{1, 2, 4} {
		m, q, lib := cyclicParts(t)
		d, err := New(Config{Mesh: m, PY: 2, PZ: 2, Protocol: Pipelined,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: threads, AllowCycles: true, MaxInners: 4, MaxOuters: 2, ForceIterations: true}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inners != 8 || res.Outers != 2 {
			t.Fatalf("threads=%d: forced run did %d inners / %d outers", threads, res.Inners, res.Outers)
		}
		if got := d.FluxIntegral(0); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("threads=%d: flux integral %v vs single domain %v", threads, got, want)
		}
		d.Close()
	}
}

// TestPipelinedCyclicRepeatRun pins the repeat-Run semantics on cyclic
// meshes: a second Run must not wedge on the previous run's unconsumed
// lagged batches, and because every lagged coupling (cross-rank slot and
// intra-rank snapshot) deterministically restarts from the zero iterate,
// two drivers running the same sequence agree bitwise.
func TestPipelinedCyclicRepeatRun(t *testing.T) {
	runTwice := func() float64 {
		m, q, lib := cyclicParts(t)
		d, err := New(Config{Mesh: m, PY: 2, PZ: 1, Protocol: Pipelined,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true, MaxInners: 3, MaxOuters: 1, ForceIterations: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i := 0; i < 2; i++ {
			if _, err := d.Run(); err != nil {
				t.Fatalf("run %d: %v", i+1, err)
			}
		}
		return d.FluxIntegral(0)
	}
	if a, b := runTwice(), runTwice(); a != b {
		t.Fatalf("repeat runs not deterministic: %v vs %v", a, b)
	}
}

// TestLaggedProtocolCyclicMesh checks the paper-faithful block Jacobi
// baseline still handles cyclic meshes (per-rank condensation, halo data
// lagged an inner): it must converge to the same fixed point as the
// single-domain solve, within the outer tolerance.
func TestLaggedProtocolCyclicMesh(t *testing.T) {
	const epsi = 1e-6
	m, q, lib := cyclicParts(t)
	ss, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true,
		Epsi: epsi, MaxInners: 100, MaxOuters: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	want := ss.FluxIntegral(0)

	m, q, lib = cyclicParts(t)
	d, err := New(Config{Mesh: m, PY: 2, PZ: 1, Protocol: Lagged,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, AllowCycles: true, Epsi: epsi, MaxInners: 100, MaxOuters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("lagged cyclic run failed to converge: %+v", res)
	}
	if got := d.FluxIntegral(0); math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
		t.Fatalf("lagged flux integral %v too far from single domain %v", got, want)
	}
}
