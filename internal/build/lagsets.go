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

// edges returns the couplings of the upwind lists up (local element ids)
// that the whole-domain condensation lags for ordinate a.
func (c *Cut) edges(a int, up [][]int) []sweep.Edge {
	var lagged []sweep.Edge
	for e, ups := range up {
		for _, u := range ups {
			if c.Sets.Of[a][sweep.Edge{From: c.Global[u], To: c.Global[e]}] {
				lagged = append(lagged, sweep.Edge{From: u, To: e})
			}
		}
	}
	return lagged
}

// LagSetsKey returns the content fingerprint of a whole-domain lag-set
// computation. It shares the cache keyspace with artifact keys under a
// distinct prefix.
func LagSetsKey(m *mesh.Mesh, order int, q *quadrature.Set, cycleOrder sweep.CycleOrder, allowCycles bool) string {
	return fmt.Sprintf("lagsets|mesh:%s|o:%d|q:%s|cy:%d|ac:%t",
		m.Fingerprint(), order, quadFingerprint(q), int(cycleOrder), allowCycles)
}

// GlobalLagSets condenses every ordinate over the whole-domain mesh
// under cycleOrder, the strategy each rank solver is configured with, so
// the distributed decisions cannot diverge from a rank's own view of the
// rule. It classifies through Topologies' classifier (Classifications
// counts these scans too) and condenses each distinct classification
// once, building no schedules and no counter graphs, so it lags exactly
// the edges the single-domain engine lags. Without allowCycles a cyclic
// ordinate fails with sweep.ErrCycle.
func GlobalLagSets(m *mesh.Mesh, re *fem.RefElement, q *quadrature.Set, cycleOrder sweep.CycleOrder, allowCycles bool) (*LagSets, error) {
	nA := q.NumAngles()
	cl := newClassifier(m, re, nil)
	dedup := sweep.NewBitmapDedup()
	var distinct []map[sweep.Edge]bool
	out := &LagSets{
		Key: LagSetsKey(m, re.P, q, cycleOrder, allowCycles),
		Of:  make([]map[sweep.Edge]bool, nA),
	}
	for a := 0; a < nA; a++ {
		om := q.Angles[a].Omega
		in := cl.inflow(om)
		if idx := dedup.Lookup(in); idx >= 0 {
			out.Of[a] = distinct[idx]
			continue
		}
		condensations.Add(1)
		cond, err := sweep.Condense(sweep.Input{NumElems: m.NumElems(), Upwind: cl.upwind(in)}, cycleOrder)
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
		dedup.Insert(in, len(distinct))
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
