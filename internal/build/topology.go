package build

import (
	"math/bits"

	"unsnap/internal/fem"
	"unsnap/internal/sweep"
)

// Topology is the per-ordinate sweep topology: the inflow-face bitmap
// the assembly consults, the lagged-face bitmap marking cycle-cut
// couplings, the wavefront schedule, and the dependency-counter graph
// the persistent engine executes. Ordinates whose classifications
// coincide share one Topology (see Artifact.Distinct); all fields are
// read-only after Build returns.
type Topology struct {
	// Inflow marks the faces upwind of their element for this ordinate,
	// one bit per (elem, face).
	Inflow []uint64
	// Lagged marks the inflow faces whose upwind coupling is read from
	// the previous iteration (cycle-closing edges chosen by the
	// condensation or an external cut rule); nil when the ordinate's
	// dependency graph is acyclic and uncut.
	Lagged []uint64
	// lagRank[w] counts the lagged faces in the words of Lagged below w
	// (LagIndex); nil with Lagged.
	lagRank []int32
	// Sched is the wavefront (bucket) schedule over elements.
	Sched *sweep.Schedule
	// Graph is the dependency-counter task graph for the persistent
	// engine, built for every ordinate so one artifact serves every
	// concurrency scheme.
	Graph *sweep.Graph
}

// IsInflow reports whether face f of element e is an inflow face.
func (t *Topology) IsInflow(e, f int) bool {
	bit := uint(e*fem.NumFaces + f)
	return t.Inflow[bit/64]&(1<<(bit%64)) != 0
}

// IsLagged reports whether face f of element e is a lagged inflow face.
func (t *Topology) IsLagged(e, f int) bool {
	bit := uint(e*fem.NumFaces + f)
	return t.Lagged[bit/64]&(1<<(bit%64)) != 0
}

// LagIndex returns the rank of lagged face f of element e among the
// topology's lagged faces in (elem, face) order: the number of lagged
// bits below it. The solver numbers its lagged-face slots by it.
func (t *Topology) LagIndex(e, f int) int {
	bit := uint(e*fem.NumFaces + f)
	below := t.Lagged[bit/64] & (1<<(bit%64) - 1)
	return int(t.lagRank[bit/64]) + bits.OnesCount64(below)
}

// setLagged installs the lagged-face bitmap and its per-word prefix
// counts.
func (t *Topology) setLagged(lagged []uint64) {
	t.Lagged = lagged
	if lagged == nil {
		return
	}
	t.lagRank = make([]int32, len(lagged))
	n := 0
	for w, word := range lagged {
		t.lagRank[w] = int32(n)
		n += bits.OnesCount64(word)
	}
}

func (t *Topology) setInflow(e, f int) { setFaceBit(t.Inflow, e, f) }

func setFaceBit(words []uint64, e, f int) {
	bit := uint(e*fem.NumFaces + f)
	words[bit/64] |= 1 << (bit % 64)
}
