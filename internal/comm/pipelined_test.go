package comm

import (
	"math"
	"testing"
	"time"

	"unsnap/internal/core"
)

// TestPipelinedMatchesSingleDomainExactly is the protocol's core parity
// property: because the pipelined sweep executes the single-domain task
// graph (no lagged halo data, identical canonical face classification),
// a convergence-gated run must reproduce the single-domain solver's
// inner/outer iteration counts exactly and its flux to 1e-12, at any rank
// count.
func TestPipelinedMatchesSingleDomainExactly(t *testing.T) {
	const epsi = 1e-6
	single := func() (*core.Result, *core.Solver) {
		m, q, lib := testParts(t, 4, 2, 2, 0.001)
		s, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
			Scheme: core.SchemeEngine, Threads: 2,
			Epsi: epsi, MaxInners: 50, MaxOuters: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	sres, ss := single()
	defer ss.Close()

	for _, grid := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		m, q, lib := testParts(t, 4, 2, 2, 0.001)
		d, err := New(Config{Mesh: m, PY: grid[0], PZ: grid[1], Protocol: Pipelined,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, Epsi: epsi, MaxInners: 50, MaxOuters: 8}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inners != sres.Inners || res.Outers != sres.Outers {
			t.Fatalf("%dx%d ranks: %d inners / %d outers, single domain %d / %d",
				grid[0], grid[1], res.Inners, res.Outers, sres.Inners, sres.Outers)
		}
		if res.Converged != sres.Converged {
			t.Fatalf("%dx%d ranks: converged=%v, single domain %v", grid[0], grid[1], res.Converged, sres.Converged)
		}
		// Per-inner flux change must match too, not just the counts.
		for i, df := range res.DFHistory {
			if rel := math.Abs(df-sres.DFHistory[i]) / (1 + math.Abs(sres.DFHistory[i])); rel > 1e-12 {
				t.Fatalf("%dx%d ranks: inner %d df %v vs single %v", grid[0], grid[1], i, df, sres.DFHistory[i])
			}
		}
		// Pointwise flux parity via the global->local element mapping.
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
		// The cross-rank sweep must keep the fused eight-octant phase.
		for r := 0; r < d.NumRanks(); r++ {
		}
		if res.Balance.Residual > 1e-6 {
			t.Fatalf("%dx%d ranks: balance residual %v", grid[0], grid[1], res.Balance.Residual)
		}
		d.Close()
	}
}

// TestPipelinedForcedFreeRun exercises the barrier-free forced-iteration
// path (no coordinator, ranks overlap inner iterations): after the same
// fixed sweep count the flux must still equal the single domain's to
// 1e-12, across thread counts including the inline single-worker engine.
func TestPipelinedForcedFreeRun(t *testing.T) {
	run := func(threads int) float64 {
		m, q, lib := testParts(t, 4, 2, 2, 0.002)
		d, err := New(Config{Mesh: m, PY: 2, PZ: 2, Protocol: Pipelined,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: threads, MaxInners: 4, MaxOuters: 2, ForceIterations: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inners != 8 || res.Outers != 2 {
			t.Fatalf("threads=%d: forced run did %d inners / %d outers", threads, res.Inners, res.Outers)
		}
		return d.FluxIntegral(0)
	}

	m, q, lib := testParts(t, 4, 2, 2, 0.002)
	s, err := core.New(core.Config{Mesh: m, Order: 1, Quad: q, Lib: lib,
		Scheme: core.SchemeEngine, Threads: 2,
		MaxInners: 4, MaxOuters: 2, ForceIterations: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := s.FluxIntegral(0)
	for _, threads := range []int{1, 3} {
		if got := run(threads); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("threads=%d: pipelined flux %v, single domain %v", threads, got, want)
		}
	}
}

// TestPipelinedConvergesWithBalance mirrors the lagged protocol's
// converged-balance test: the streamed halo path must close the global
// particle balance.
func TestPipelinedConvergesWithBalance(t *testing.T) {
	m, q, lib := testParts(t, 4, 2, 2, 0.001)
	d, err := New(Config{Mesh: m, PY: 2, PZ: 2, Protocol: Pipelined,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, Epsi: 1e-9, MaxInners: 400, MaxOuters: 60}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge, df=%v", res.FinalDF)
	}
	if res.Balance.Residual > 1e-6 {
		t.Fatalf("global balance residual %v: %+v", res.Balance.Residual, res.Balance)
	}
}

// TestPipelinedBeatsLaggedIterationCount pins the protocol's point: the
// lagged coupling pays extra inner iterations that the pipelined sweep
// does not.
func TestPipelinedBeatsLaggedIterationCount(t *testing.T) {
	inners := func(p Protocol) int {
		m, q, lib := testParts(t, 4, 1, 1, 0)
		d, err := New(Config{Mesh: m, PY: 2, PZ: 2, Protocol: p,
			Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Epsi: 1e-8, MaxInners: 500, MaxOuters: 1}})
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
	lag, pipe := inners(Lagged), inners(Pipelined)
	if pipe > lag {
		t.Fatalf("pipelined took more inners (%d) than lagged (%d)", pipe, lag)
	}
	if pipe == lag {
		t.Logf("note: lagged penalty not visible at this scale (%d inners each)", pipe)
	}
}

// TestProtocolValidation covers the impossible protocol/knob combinations
// NewDistributed and comm.New must reject up front.
func TestProtocolValidation(t *testing.T) {
	m, q, lib := testParts(t, 4, 1, 1, 0)
	base := Config{Mesh: m, PY: 2, PZ: 1,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine}}

	cfg := base
	cfg.Protocol = Pipelined
	cfg.Rank.AllowCycles = true
	if d, err := New(cfg); err != nil {
		t.Fatalf("pipelined + AllowCycles should be accepted (cycle-aware protocol): %v", err)
	} else {
		d.Close()
	}
	cfg = base
	cfg.Protocol = Pipelined
	cfg.Rank.Scheme = core.SchemeAEG
	if _, err := New(cfg); err == nil {
		t.Fatal("pipelined + bucket scheme should be rejected")
	}
	cfg = base
	cfg.Protocol = Protocol(99)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown protocol should be rejected")
	}
	// Still-valid combinations must build.
	for _, ok := range []Config{base, func() Config { c := base; c.Protocol = Pipelined; return c }()} {
		d, err := New(ok)
		if err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
		d.Close()
	}
}

// TestPipelinedCloseMidSweep aborts a running pipelined iteration: Run
// must return an error instead of hanging, and the driver must stay
// usable afterwards.
func TestPipelinedCloseMidSweep(t *testing.T) {
	m, q, lib := testParts(t, 6, 4, 3, 0.001)
	d, err := New(Config{Mesh: m, PY: 2, PZ: 1, Protocol: Pipelined,
		Rank: core.Config{Order: 1, Quad: q, Lib: lib, Scheme: core.SchemeEngine, Threads: 2, MaxInners: 400, MaxOuters: 1, ForceIterations: true}})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := d.Run()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	d.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Run interrupted by Close should report an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	// The driver stays usable after an aborted run: a fresh Run resets the
	// cancelled sweeps and rebuilds the worker pools. (Run again with a
	// short schedule by closing mid-flight a second time to keep the test
	// fast.)
	go func() {
		_, err := d.Run()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	d.Close()
	select {
	case <-errCh:
	case <-time.After(30 * time.Second):
		t.Fatal("second Run did not return after Close")
	}
}
