package build

import (
	"fmt"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
)

// LagSets is the cached product of a whole-domain cycle condensation:
// the per-angle cycle-closing edge sets (global element ids, nil for
// acyclic ordinates) the pipelined distributed protocol hands each rank
// as its Cut. It joins the artifact cache under its own key so a
// partitioned driver rebuilt on a hot mesh skips the global condensation
// too.
type LagSets struct {
	// Key is the content fingerprint the sets were computed under.
	Key string
	// Of[a] maps cycle-closing edges of ordinate a; nil for acyclic
	// ordinates. Deduplicated: identical-topology ordinates share one map.
	Of []map[sweep.Edge]bool
	// AnyLag reports whether any ordinate needed lagging.
	AnyLag bool
	// MaxComp is the element count of the largest strongly connected
	// component over all ordinates (1 on an acyclic mesh).
	MaxComp int

	size int64
}

// SizeBytes reports the approximate resident size for cache accounting.
func (l *LagSets) SizeBytes() int64 { return l.size }

// Cut is one rank's share of a whole-domain condensation: the global lag
// sets and the rank's local-to-global element ids (mesh.Sub.Global). A
// rank built with it lags exactly the intra-rank couplings the
// single-domain solver lags. It is data, so Spec.Key names it by content.
type Cut struct {
	Sets   *LagSets
	Global []int
}

// Lagged reports whether the dependency of local element to on local
// element from is lagged for ordinate a.
func (c *Cut) Lagged(a, from, to int) bool {
	return c.Sets.Of[a][sweep.Edge{From: c.Global[from], To: c.Global[to]}]
}

// LagSetsKey returns the content fingerprint of a whole-domain lag-set
// computation. It shares the cache keyspace with artifact keys under a
// distinct prefix.
func LagSetsKey(m *mesh.Mesh, order int, q *quadrature.Set, cycleOrder sweep.CycleOrder, allowCycles bool) string {
	return fmt.Sprintf("lagsets|mesh:%s|o:%d|q:%s|cy:%d|ac:%t",
		m.Fingerprint(), order, quadFingerprint(q), int(cycleOrder), allowCycles)
}

// GlobalLagSets classifies every ordinate over the whole-domain mesh —
// deduplicated through the same bitmap mechanism buildTopologies uses,
// so identical-topology ordinates are condensed once — and runs the
// shared SCC condensation on each distinct classification under
// cycleOrder (the identical strategy each rank solver is configured
// with, so the distributed decisions can never diverge from a rank's own
// view of the rule). Without allowCycles a cyclic ordinate is rejected,
// preserving the old build-time guarantee. The classification replicates
// the single-domain rule (every interior face judged from its
// lower-element side), so a mesh condensed here lags exactly the edges
// the single-domain engine lags.
func GlobalLagSets(m *mesh.Mesh, re *fem.RefElement, q *quadrature.Set, cycleOrder sweep.CycleOrder, allowCycles bool) (*LagSets, error) {
	nE := m.NumElems()
	nA := q.NumAngles()
	type pair struct {
		e, nb int
		n     [3]float64
	}
	var pairs []pair
	for e := 0; e < nE; e++ {
		geo := m.Elems[e].Geometry()
		for f := 0; f < fem.NumFaces; f++ {
			if nb := m.Elems[e].Faces[f].Neighbor; nb > e {
				pairs = append(pairs, pair{e: e, nb: nb, n: re.FaceUnitNormal(geo, f)})
			}
		}
	}
	words := (len(pairs) + 63) / 64
	dedup := sweep.NewBitmapDedup()
	var distinct []map[sweep.Edge]bool
	out := &LagSets{
		Key: LagSetsKey(m, re.P, q, cycleOrder, allowCycles),
		Of:  make([]map[sweep.Edge]bool, nA),
	}
	for a := 0; a < nA; a++ {
		om := q.Angles[a].Omega
		bits := make([]uint64, words)
		for p, pr := range pairs {
			if om[0]*pr.n[0]+om[1]*pr.n[1]+om[2]*pr.n[2] < 0 {
				bits[p/64] |= 1 << (p % 64)
			}
		}
		if idx := dedup.Lookup(bits); idx >= 0 {
			out.Of[a] = distinct[idx]
			if out.Of[a] != nil {
				out.AnyLag = true
			}
			continue
		}
		condensations.Add(1)
		up := make([][]int, nE)
		for p, pr := range pairs {
			if bits[p/64]&(1<<(p%64)) != 0 {
				up[pr.e] = append(up[pr.e], pr.nb)
			} else {
				up[pr.nb] = append(up[pr.nb], pr.e)
			}
		}
		cond, err := sweep.Condense(sweep.Input{NumElems: nE, Upwind: up}, cycleOrder)
		if err != nil {
			return nil, fmt.Errorf("build: condensing angle %d (omega %v): %w", a, om, err)
		}
		out.MaxComp = max(out.MaxComp, cond.MaxComp)
		var ls map[sweep.Edge]bool
		if len(cond.Lagged) > 0 {
			if !allowCycles {
				return nil, fmt.Errorf("build: angle %d (omega %v) has a cyclic sweep (largest SCC %d elements): %w (enable AllowCycles to lag the cycle-closing couplings)",
					a, om, cond.MaxComp, sweep.ErrCycle)
			}
			ls = make(map[sweep.Edge]bool, len(cond.Lagged))
			for _, l := range cond.Lagged {
				ls[l] = true
			}
			out.AnyLag = true
		}
		dedup.Insert(bits, len(distinct))
		distinct = append(distinct, ls)
		out.Of[a] = ls
	}
	for _, ls := range distinct {
		out.size += int64(len(ls)) * 24
	}
	out.size += int64(nA) * 8
	return out, nil
}

// CachedGlobalLagSets is GlobalLagSets through a cache (nil cache means
// a direct computation): ranks and repeated drivers on one mesh share
// one condensation.
func CachedGlobalLagSets(c *Cache, m *mesh.Mesh, re *fem.RefElement, q *quadrature.Set, cycleOrder sweep.CycleOrder, allowCycles bool) (*LagSets, error) {
	if c == nil {
		return GlobalLagSets(m, re, q, cycleOrder, allowCycles)
	}
	v, err := c.getOrBuild(LagSetsKey(m, re.P, q, cycleOrder, allowCycles), "", 0, func() (sized, error) {
		return GlobalLagSets(m, re, q, cycleOrder, allowCycles)
	})
	if err != nil {
		return nil, err
	}
	return v.(*LagSets), nil
}
