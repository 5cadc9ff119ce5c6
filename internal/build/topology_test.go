package build

import (
	"testing"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
)

// TestLagIndex holds Topology.LagIndex to a linear count of the lagged
// bits below each lagged (elem, face), on a bitset of four words with a
// bit on each side of every word boundary, a full word and an empty one.
func TestLagIndex(t *testing.T) {
	const nE = 40 // 240 face bits: four words, the last one partial
	words := (nE*fem.NumFaces + 63) / 64
	lagged := make([]uint64, words)
	set := func(bit int) { lagged[bit/64] |= 1 << (bit % 64) }
	for _, bit := range []int{0, 5, 63, 64, 100, 127, 128, 239} {
		set(bit)
	}
	// Word 1 full, word 2 empty apart from its first bit.
	for bit := 64; bit < 128; bit++ {
		set(bit)
	}
	topo := &Topology{}
	topo.setLagged(lagged)
	below := 0
	seen := 0
	for e := 0; e < nE; e++ {
		for f := 0; f < fem.NumFaces; f++ {
			if !topo.IsLagged(e, f) {
				continue
			}
			if got := topo.LagIndex(e, f); got != below {
				t.Fatalf("LagIndex(%d, %d) = %d, want %d", e, f, got, below)
			}
			below++
			seen++
		}
	}
	if seen != 69 {
		t.Fatalf("test bitset holds %d lagged faces, want 69", seen)
	}
	if len(topo.lagRank) != words {
		t.Fatalf("prefix table of %d words, want %d", len(topo.lagRank), words)
	}
	unlagged := &Topology{}
	unlagged.setLagged(nil)
	if unlagged.lagRank != nil {
		t.Fatal("an unlagged topology keeps a prefix table")
	}
}

// TestArtifactSizeCountsLagRank: artifactSize grows by the lag prefix
// tables (four bytes a word of every distinct lagged topology) on a
// cyclic artifact, and by nothing on an acyclic one.
func TestArtifactSizeCountsLagRank(t *testing.T) {
	q, err := quadrature.NewSNAP(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name           string
		twist, periods float64
		cyclic         bool
	}{{"acyclic", 0.001, 0, false}, {"cyclic", 0.8, 3, true}} {
		m, err := mesh.New(mesh.Config{NX: 4, NY: 4, NZ: 4, LX: 1, LY: 1, LZ: 1,
			Twist: c.twist, TwistPeriods: c.periods})
		if err != nil {
			t.Fatal(err)
		}
		art, err := Build(Spec{Mesh: m, Order: 1, Quad: q, Threads: 1, AllowCycles: true})
		if err != nil {
			t.Fatal(err)
		}
		var table int64
		seen := map[*Topology]bool{}
		for _, topo := range art.Topos {
			if !seen[topo] {
				seen[topo] = true
				table += int64(len(topo.Lagged)) * 4
			}
		}
		if (table > 0) != c.cyclic {
			t.Fatalf("%s: lag prefix tables of %d bytes", c.name, table)
		}
		with := artifactSize(art)
		for topo := range seen {
			topo.lagRank = nil
		}
		if without := artifactSize(art); with-without != table {
			t.Fatalf("%s: prefix tables add %d bytes to artifactSize, want %d", c.name, with-without, table)
		}
	}
}
