package unsnap

import (
	"fmt"
	"testing"

	"unsnap/internal/build"
)

// artifactProblem is small enough that every test here runs in
// milliseconds but still does real matching/classification/condensation
// work on a twisted mesh.
func artifactProblem() Problem {
	p := DefaultProblem()
	p.NX, p.NY, p.NZ = 4, 4, 4
	p.AnglesPerOctant = 2
	p.Groups = 2
	return p
}

func artifactOpts(cache *ArtifactCache) Options {
	return Options{
		Threads:   1,
		MaxInners: 3, MaxOuters: 1, ForceIterations: true,
		Cache: cache,
	}
}

func runFlux(t *testing.T, s *Solver) []float64 {
	t.Helper()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, s.NumGroups())
	for g := range out {
		out[g] = s.FluxIntegral(g)
	}
	return out
}

// TestCacheSharingAcrossSolvers pins the tentpole contract: N solvers
// built through one cache share exactly one artifact (one build, one
// miss, N-1 hits) and solve bitwise identically to an uncached solver.
func TestCacheSharingAcrossSolvers(t *testing.T) {
	p := artifactProblem()

	ref, err := NewSolver(p, artifactOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := runFlux(t, ref)

	cache := NewCache(0)
	builds0 := build.Builds()
	const n = 3
	solvers := make([]*Solver, n)
	for i := range solvers {
		s, err := NewSolver(p, artifactOpts(cache))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		solvers[i] = s
	}
	if d := build.Builds() - builds0; d != 1 {
		t.Fatalf("%d solvers ran %d builds, want 1", n, d)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Fatalf("cache stats %+v, want 1 miss, %d hits, 1 entry", st, n-1)
	}
	for i, s := range solvers {
		if s.Artifact() != solvers[0].Artifact() {
			t.Fatalf("solver %d has its own artifact", i)
		}
		got := runFlux(t, s)
		for g := range got {
			if got[g] != want[g] {
				t.Fatalf("solver %d group %d flux %v != uncached %v (must be bitwise)", i, g, got[g], want[g])
			}
		}
	}
}

// TestWarmSolveSkipsBuildEntirely is the acceptance pin: a second solve
// on the same mesh through one cache performs zero builds, zero face
// classifications and zero cycle condensations — the artifact layer, not
// the solver, owns all topology-derived setup — while matching the cold
// solve bitwise.
func TestWarmSolveSkipsBuildEntirely(t *testing.T) {
	p := artifactProblem()
	cache := NewCache(0)

	s1, err := NewSolver(p, artifactOpts(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	want := runFlux(t, s1)

	b0, cl0, co0 := build.Builds(), build.Classifications(), build.Condensations()
	s2, err := NewSolver(p, artifactOpts(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := runFlux(t, s2)
	if b, cl, co := build.Builds(), build.Classifications(), build.Condensations(); b != b0 || cl != cl0 || co != co0 {
		t.Fatalf("warm solve did build work: builds %+d classifications %+d condensations %+d",
			b-b0, cl-cl0, co-co0)
	}
	for g := range got {
		if got[g] != want[g] {
			t.Fatalf("group %d warm flux %v != cold %v (must be bitwise)", g, got[g], want[g])
		}
	}
}

// TestArtifactInjection pins the explicit injection point: Build once,
// hand the artifact to a solver via Options.Artifact, and construction
// does zero additional build work; an incompatible artifact is rejected
// with a structured error instead of silently rebuilding.
func TestArtifactInjection(t *testing.T) {
	p := artifactProblem()
	opts := artifactOpts(nil)
	art, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b0 := build.Builds()
	opts.Artifact = art
	s, err := NewSolver(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Artifact() != art {
		t.Fatal("solver did not adopt the injected artifact")
	}
	if d := build.Builds() - b0; d != 0 {
		t.Fatalf("injected artifact still ran %d builds", d)
	}

	wrong := p
	wrong.Order = 2
	if _, err := NewSolver(wrong, opts); err == nil {
		t.Fatal("incompatible injected artifact (wrong order) was accepted")
	}
	if _, err := NewDistributed(p, opts, 2, 1); err == nil {
		t.Fatal("distributed driver accepted Options.Artifact")
	}
}

// TestDistributedCacheSharing pins the per-rank contract: a second
// pipelined driver on the same mesh and grid through the same cache
// performs zero new builds and zero new condensations (the ranks join the
// first driver's artifact and lag-set entries) and reproduces its flux
// bitwise — on an acyclic mesh and on a cyclic one, whose ranks are keyed
// by their cut of the global condensation. On the cyclic mesh a 1x2 and a
// 2x1 driver sharing one cache share no rank artifact, and each matches
// its own uncached run bitwise.
func TestDistributedCacheSharing(t *testing.T) {
	cyclic := artifactProblem()
	cyclic.Twist, cyclic.TwistPeriods = 0.8, 3
	if _, err := NewSolver(cyclic, artifactOpts(nil)); err == nil {
		t.Fatal("the cyclic row's mesh is acyclic: the row would test nothing")
	}
	for _, tc := range []struct {
		name   string
		p      Problem
		cycles bool
		py, pz int
	}{
		{"acyclic/2x2", artifactProblem(), false, 2, 2},
		{"cyclic/1x2", cyclic, true, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := artifactOpts(nil)
			opts.Threads = 2
			opts.Protocol = CommPipelined
			opts.AllowCycles = tc.cycles
			opts.Cache = NewCache(0)

			want := distributedFlux(t, tc.p, opts, tc.py, tc.pz)
			if st := opts.Cache.Stats(); st.Misses == 0 {
				t.Fatalf("first driver never consulted the cache: %+v", st)
			}
			b0, co0 := build.Builds(), build.Condensations()
			got := distributedFlux(t, tc.p, opts, tc.py, tc.pz)
			if b, co := build.Builds(), build.Condensations(); b != b0 || co != co0 {
				t.Fatalf("second driver did build work: builds %+d condensations %+d", b-b0, co-co0)
			}
			assertBitwise(t, "second-driver", got, want)
		})
	}

	t.Run("cyclic/grids", func(t *testing.T) {
		opts := artifactOpts(nil)
		opts.Threads = 2
		opts.Protocol = CommPipelined
		opts.AllowCycles = true
		uncached := opts
		opts.Cache = NewCache(0)
		for _, g := range [][2]int{{1, 2}, {2, 1}} {
			b0 := build.Builds()
			got := distributedFlux(t, cyclic, opts, g[0], g[1])
			if b := build.Builds() - b0; b != 2 {
				t.Fatalf("%dx%d driver ran %d rank builds through the shared cache, want 2 (one per rank)", g[0], g[1], b)
			}
			assertBitwise(t, fmt.Sprintf("%dx%d cached", g[0], g[1]), got, distributedFlux(t, cyclic, uncached, g[0], g[1]))
		}
	})
}

// distributedFlux runs one distributed driver and returns its per-group
// flux integrals.
func distributedFlux(t *testing.T, p Problem, opts Options, py, pz int) []float64 {
	t.Helper()
	d, err := NewDistributed(p, opts, py, pz)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, p.Groups)
	for g := range out {
		out[g] = d.FluxIntegral(g)
	}
	return out
}

func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for g := range got {
		if got[g] != want[g] {
			t.Fatalf("group %d %s flux %v != %v (must be bitwise)", g, what, got[g], want[g])
		}
	}
}

// TestSetBoundarySiblingIsolation audits the mutator contract: a
// boundary change on one solver invalidates only that solver's per-solve
// state, never the artifact it shares with its siblings. A reflective
// sibling must not perturb a vacuum sibling's solution.
func TestSetBoundarySiblingIsolation(t *testing.T) {
	p := artifactProblem()

	ref, err := NewSolver(p, artifactOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := runFlux(t, ref)

	cache := NewCache(0)
	reflOpts := artifactOpts(cache)
	reflOpts.Reflect = [3]bool{true, false, false}
	refl, err := NewSolver(p, reflOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer refl.Close()
	vac, err := NewSolver(p, artifactOpts(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer vac.Close()

	if refl.Artifact() != vac.Artifact() {
		t.Fatal("boundary options leaked into the artifact key (siblings should share)")
	}
	// Run the reflective sibling first so any illegal write to shared
	// state would land before the vacuum sibling sweeps.
	reflFlux := runFlux(t, refl)
	got := runFlux(t, vac)
	for g := range got {
		if got[g] != want[g] {
			t.Fatalf("group %d vacuum flux %v != solo %v after reflective sibling ran", g, got[g], want[g])
		}
	}
	// Sanity: the reflective run actually differs (the test would be
	// vacuous if Reflect were a no-op on this problem).
	same := true
	for g := range reflFlux {
		if reflFlux[g] != want[g] {
			same = false
		}
	}
	if same {
		t.Fatal("reflective and vacuum solutions are identical; sibling test is vacuous")
	}
}
