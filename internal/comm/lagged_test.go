package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"unsnap/internal/build"
	"unsnap/internal/core"
	"unsnap/internal/fault"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/xs"
)

// driverDigest hashes the bit patterns of every rank's scalar and angular
// flux, rank by rank (the first 16 hex digits of the sha256).
func driverDigest(d *Driver) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for r := 0; r < d.NumRanks(); r++ {
		s := d.Rank(r)
		for e := 0; e < s.NumElems(); e++ {
			for g := 0; g < s.NumGroups(); g++ {
				for n := 0; n < s.NumNodes(); n++ {
					put(s.Phi(e, g, n))
				}
				for a := 0; a < s.NumAngles(); a++ {
					for n := 0; n < s.NumNodes(); n++ {
						put(s.Psi(a, e, g, n))
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestLaggedFluxDigest pins the block Jacobi protocol to the iterates it
// produced when its halos were Boundary callbacks over per-face maps (the
// values below were recorded then): reading the same values from External
// slots changes no bit of the flux and no iteration count, on acyclic and
// cyclic meshes, with and without DSA, under the engine and a bucket
// scheme, at 1 and 3 threads. Engine ranks now keep the fused octant
// phase.
func TestLaggedFluxDigest(t *testing.T) {
	want := map[string]string{
		"cyclic=false/1x2/none/engine":              "24/2/ef8251166a59a852",
		"cyclic=false/1x2/none/angle/ELEMENT/GROUP": "24/2/c1bb7bc8dbc55e87",
		"cyclic=false/1x2/dsa/engine":               "24/2/6067ba9eb92613f9",
		"cyclic=false/1x2/dsa/angle/ELEMENT/GROUP":  "24/2/81f0fafd7b516585",
		"cyclic=false/2x2/none/engine":              "29/2/c6230a928e84acde",
		"cyclic=false/2x2/none/angle/ELEMENT/GROUP": "29/2/4f1ef9fb06533295",
		"cyclic=false/2x2/dsa/engine":               "29/2/3a60c5db16eec4bc",
		"cyclic=false/2x2/dsa/angle/ELEMENT/GROUP":  "29/2/818c14501d793c9f",
		"cyclic=true/1x2/none/engine":               "30/2/de71bada0184790b",
		"cyclic=true/1x2/none/angle/ELEMENT/GROUP":  "30/2/a5dbd2e719243737",
		"cyclic=true/1x2/dsa/engine":                "30/2/bf37897aa0bb9d62",
		"cyclic=true/1x2/dsa/angle/ELEMENT/GROUP":   "30/2/52159ecac00d73a1",
		"cyclic=true/2x2/none/engine":               "30/2/eed16bf9b4cdc59b",
		"cyclic=true/2x2/none/angle/ELEMENT/GROUP":  "30/2/55ad7d33ab5d9503",
		"cyclic=true/2x2/dsa/engine":                "29/2/1f5c5921f6e0eac2",
		"cyclic=true/2x2/dsa/angle/ELEMENT/GROUP":   "29/2/ab3ab78f87c8cf7f",
	}
	for _, cyclic := range []bool{false, true} {
		for _, grid := range [][2]int{{1, 2}, {2, 2}} {
			for _, acc := range []core.AccelMode{core.AccelNone, core.AccelDSA} {
				for _, scheme := range []core.Scheme{core.SchemeEngine, core.SchemeAEG} {
					name := fmt.Sprintf("cyclic=%v/%dx%d/%v/%v", cyclic, grid[0], grid[1], acc, scheme)
					for _, threads := range []int{1, 3} {
						rank := core.Config{Order: 1, Scheme: scheme, Threads: threads,
							Accelerate: acc, Epsi: 1e-5, MaxInners: 30, MaxOuters: 2}
						cfg := Config{PY: grid[0], PZ: grid[1]}
						if cyclic {
							cfg.Mesh, rank.Quad, rank.Lib = cyclicParts(t)
							rank.AllowCycles = true
						} else {
							cfg.Mesh, rank.Quad, rank.Lib = testParts(t, 4, 2, 2, 0.001)
						}
						cfg.Rank = rank
						d, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						res, err := d.Run()
						if err != nil {
							t.Fatalf("%s threads=%d: %v", name, threads, err)
						}
						if got := fmt.Sprintf("%d/%d/%s", res.Inners, res.Outers, driverDigest(d)); got != want[name] {
							t.Errorf("%s threads=%d: inners/outers/digest %s, want %s", name, threads, got, want[name])
						}
						d.Close()
					}
				}
			}
		}
	}
}

// TestLaggedCanonicalClassification audits the one classification change
// External faces brought the lagged protocol: each side of a cross-rank
// face used to decide upwind/downwind from its own face normal, and now
// both use the pair's canonical normal. On every mesh the lagged tests and
// the converge_dist workload run, the two rules agree on every (face,
// ordinate) pair — which is why TestLaggedFluxDigest holds bitwise.
func TestLaggedCanonicalClassification(t *testing.T) {
	re, err := fem.NewRefElement(1)
	if err != nil {
		t.Fatal(err)
	}
	audit := func(name string, m *mesh.Mesh, q *quadrature.Set) {
		t.Helper()
		for _, grid := range [][2]int{{2, 1}, {1, 2}, {2, 2}} {
			part, err := m.PartitionKBA(grid[0], grid[1])
			if err != nil {
				t.Fatal(err)
			}
			remote, err := part.RemoteFaces(re)
			if err != nil {
				t.Fatal(err)
			}
			flips := 0
			for r, sub := range part.Subs {
				for _, rf := range remote[r] {
					own := re.FaceUnitNormal(sub.Mesh.Elems[rf.Key.Elem].Geometry(), rf.Key.Face)
					for _, ang := range q.Angles {
						om := ang.Omega
						byOwn := om[0]*own[0]+om[1]*own[1]+om[2]*own[2] < 0
						if byOwn != core.ExternalInflow(om, rf.Normal, rf.Canonical) {
							flips++
						}
					}
				}
			}
			if flips != 0 {
				t.Errorf("%s %dx%d: %d (face, ordinate) pairs classified differently by the own and canonical normals", name, grid[0], grid[1], flips)
			}
		}
	}
	for _, tw := range []float64{0, 0.001, 0.002} {
		for _, nang := range []int{1, 2} {
			m, q, _ := testParts(t, 4, 1, nang, tw)
			audit(fmt.Sprintf("testParts twist %v nang %d", tw, nang), m, q)
		}
	}
	m, q, _ := cyclicParts(t)
	audit("cyclicParts", m, q)
	for _, tw := range []float64{0.34, 0.35, 0.36} {
		m, err := mesh.New(mesh.Config{NX: 6, NY: 6, NZ: 6, LX: 10, LY: 10, LZ: 10,
			Twist: tw, TwistPeriods: 2, MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere})
		if err != nil {
			t.Fatal(err)
		}
		q, err := quadrature.NewSNAP(4)
		if err != nil {
			t.Fatal(err)
		}
		audit(fmt.Sprintf("converge_dist twist %v", tw), m, q)
	}
}

// TestDegradeKeepsRankSolvers pins that FailDegrade swaps the stepper, not
// the solvers: the demotion builds nothing and keeps every rank solver,
// which then sweeps block Jacobi in the fused octant phase. On this cyclic
// mesh the ranks keep their Cut of the pipelined protocol's global
// condensation, which leaves each rank acyclic; the degraded run converges to
// the single-domain fixed point like a lagged driver built from scratch
// (TestLaggedProtocolCyclicMesh). TestChaosDegradeToLagged covers the
// acyclic case.
func TestDegradeKeepsRankSolvers(t *testing.T) {
	rank := core.Config{Order: 1, Scheme: core.SchemeEngine, Threads: 2,
		AllowCycles: true, Epsi: 1e-6, MaxInners: 100, MaxOuters: 10}
	single := rank
	single.Mesh, single.Quad, single.Lib = cyclicParts(t)
	ss, err := core.New(single)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	want := ss.FluxIntegral(0)
	ss.Close()

	cfg := Config{PY: 2, PZ: 1, Protocol: Pipelined, Rank: rank,
		// The deadline ends the stalled pipelined attempt and must never
		// end the lagged run that follows (see TestChaosDegradeToLagged).
		Deadline: max(400*time.Millisecond, 20*time.Since(start)),
		Policy:   FailurePolicy{Mode: FailDegrade},
		Fault: &fault.Schedule{Seed: 9, Rules: []fault.Rule{
			{From: 0, To: 1, Kind: fault.Stall},
		}}}
	cfg.Mesh, cfg.Rank.Quad, cfg.Rank.Lib = cyclicParts(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := []*core.Solver{d.Rank(0), d.Rank(1)}
	b0 := build.Builds()
	res, err := d.Run()
	if err != nil {
		t.Fatalf("degrade policy should complete the solve, got %v", err)
	}
	if db := build.Builds() - b0; db != 0 {
		t.Errorf("the degrade ran %d builds, want 0", db)
	}
	if !res.Degraded || !res.Converged {
		t.Fatalf("degraded=%v converged=%v", res.Degraded, res.Converged)
	}
	for r, s := range before {
		if d.Rank(r) != s {
			t.Errorf("rank %d solver was rebuilt", r)
		}
	}
	if got := d.FluxIntegral(0); math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
		t.Errorf("degraded flux integral %v too far from single domain %v", got, want)
	}
}
