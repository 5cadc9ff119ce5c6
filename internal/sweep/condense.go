package sweep

import (
	"fmt"
	"hash/fnv"

	"unsnap/internal/enum"
)

// This file is the shared cycle-analysis layer of the sweep topology: a
// Tarjan SCC condensation of one ordinate's upwind graph, the pluggable
// within-SCC ordering rule that demotes intra-SCC back edges to lagged
// (previous-iterate) reads, and the bitmap deduplication that lets every
// consumer classify identical-topology ordinates exactly once. The
// schedule builder (BuildWithLagging), the counter-graph builder
// (BuildGraph via the condensation's lag set), the single-domain solver
// and the cross-rank pipelined protocol all derive their cycle handling
// from this one transform, so no two layers can disagree about which
// dependency edges are lagged.
//
// The rule follows Vermaak et al. ("Massively Parallel Transport Sweeps on
// Meshes with Cyclic Dependencies") in making cycle-broken edges
// first-class graph citizens decided once, up front: within every strongly
// connected component a deterministic linear order of the members is
// chosen (see CycleOrder), and the edges pointing backwards in that order
// are lagged, the rest kept. The kept intra-SCC edges strictly advance in
// the order and the cross-SCC edges follow the condensation DAG, so the
// cut graph is acyclic by construction — and the decision depends only on
// SCC membership and element ids, never on traversal order, which is what
// lets a partitioned run reproduce the single-domain decision from global
// element ids.

// CycleOrder selects the deterministic linear order Condense imposes on
// the members of each strongly connected component: the edges pointing
// backwards in that order become the lagged (previous-iterate) couplings,
// so the strategy controls how many couplings a cyclic mesh lags — and,
// through the lag set's fixed-point character, how fast it converges.
// Every strategy is a pure function of SCC membership and element ids
// alone, the invariant that lets a partitioned pipelined run reproduce the
// single-domain decision rank by rank from global element ids.
type CycleOrder int

const (
	// OrderElementIndex orders each SCC by ascending element index, so
	// the edges from a higher element index to a lower one are lagged.
	// The original rule and the default: trivially deterministic, but
	// blind to the cycle structure (on the 6^3 oscillating-twist bench
	// mesh it lags ~960 couplings).
	OrderElementIndex CycleOrder = iota
	// OrderFeedbackArc orders each SCC by a greedy feedback-arc-set
	// heuristic (Eades/Lin/Smyth-style sink/source peeling over the
	// SCC's subgraph, ties broken by element index) that minimises the
	// number of demoted back edges. Per SCC the peeled sequence is kept
	// only when it lags strictly fewer edges than OrderElementIndex
	// would, so the resulting lag set is never larger than the
	// element-index one.
	OrderFeedbackArc

	numCycleOrders
)

// Valid reports whether o names a known strategy.
func (o CycleOrder) Valid() bool { return o >= 0 && o < numCycleOrders }

// CycleOrders lists every strategy in declaration order.
func CycleOrders() []CycleOrder {
	out := make([]CycleOrder, numCycleOrders)
	for i := range out {
		out[i] = CycleOrder(i)
	}
	return out
}

var cycleOrderNames = []string{OrderElementIndex: "element-index", OrderFeedbackArc: "feedback-arc"}

// String names the strategy (the -cycle-order flag spelling).
func (o CycleOrder) String() string { return enum.Name(cycleOrderNames, o) }

// MarshalText spells o as String does.
func (o CycleOrder) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses a String spelling; the empty text is
// OrderElementIndex.
func (o *CycleOrder) UnmarshalText(text []byte) error {
	return enum.Unmarshal(cycleOrderNames, o, text)
}

// ParseCycleOrder resolves a strategy name (as produced by String).
func ParseCycleOrder(name string) (CycleOrder, error) {
	return enum.Parse[CycleOrder](cycleOrderNames, name)
}

// Condensation is the SCC structure of one ordinate's upwind graph and the
// lag set it induces.
type Condensation struct {
	NumElems int
	// Order is the within-SCC strategy the lag set was computed under.
	Order CycleOrder
	// Comp[e] is the strongly connected component id of element e
	// (component ids are assigned in Tarjan completion order and carry no
	// semantic meaning beyond equality).
	Comp []int32
	// NumComps is the number of components; MaxComp the size of the
	// largest one (1 everywhere on an acyclic graph).
	NumComps, MaxComp int
	// Lagged lists the demoted intra-SCC edges in deterministic order
	// (ascending To, then the order of its upwind list), each exactly
	// once. Empty for acyclic graphs.
	Lagged []Edge
}

// Condense computes the strongly connected components of in and the lagged
// edge set that breaks every cycle: within each SCC, the edges pointing
// backwards in the strategy's member order (see CycleOrder). The remaining
// graph is acyclic by construction.
func Condense(in Input, order CycleOrder) (*Condensation, error) {
	if !order.Valid() {
		return nil, fmt.Errorf("sweep: unknown cycle order %d", int(order))
	}
	if err := checkInput(in); err != nil {
		return nil, err
	}
	n := in.NumElems
	c := &Condensation{NumElems: n, Order: order, Comp: make([]int32, n)}

	// Successor CSR (downwind adjacency) for the DFS; edges run
	// upwind -> downwind.
	succOff := make([]int32, n+1)
	for e := 0; e < n; e++ {
		for _, u := range in.Upwind[e] {
			succOff[u+1]++
		}
	}
	for e := 0; e < n; e++ {
		succOff[e+1] += succOff[e]
	}
	succ := make([]int32, succOff[n])
	fill := make([]int32, n)
	copy(fill, succOff[:n])
	for e := 0; e < n; e++ {
		for _, u := range in.Upwind[e] {
			succ[fill[u]] = int32(e)
			fill[u]++
		}
	}

	// Iterative Tarjan (explicit stack: meshes can chain thousands of
	// elements deep).
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for e := range index {
		index[e] = unvisited
		c.Comp[e] = unvisited
	}
	var stack []int32
	type frame struct {
		v  int32
		ei int32 // next successor offset to visit
	}
	var frames []frame
	var next int32
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root), ei: succOff[root]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.ei < succOff[v+1] {
				w := succ[fr.ei]
				fr.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, ei: succOff[w]})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is done: pop its component if it is a root.
			if low[v] == index[v] {
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					c.Comp[w] = int32(c.NumComps)
					size++
					if w == v {
						break
					}
				}
				c.NumComps++
				if size > c.MaxComp {
					c.MaxComp = size
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	// Demote intra-SCC back edges — edges pointing backwards in the
	// strategy's within-SCC member order — each unique edge once. With
	// OrderElementIndex the order is the element index itself (pos nil);
	// OrderFeedbackArc substitutes the greedy peeling sequence per SCC.
	var pos []int32
	if order == OrderFeedbackArc && c.MaxComp > 1 {
		pos = feedbackArcPositions(in, c)
	}
	isBack := func(u, e int) bool {
		if pos != nil {
			return pos[u] > pos[e]
		}
		return u > e
	}
	var seen map[Edge]bool
	for e := 0; e < n; e++ {
		for _, u := range in.Upwind[e] {
			if c.Comp[u] == c.Comp[e] && isBack(u, e) {
				edge := Edge{From: u, To: e}
				if seen == nil {
					seen = make(map[Edge]bool)
				}
				if !seen[edge] {
					seen[edge] = true
					c.Lagged = append(c.Lagged, edge)
				}
			}
		}
	}
	return c, nil
}

// feedbackArcPositions computes the OrderFeedbackArc member order: pos[v]
// such that an intra-SCC edge u->e is lagged iff pos[u] > pos[e].
// Singleton components keep their element index (never compared); every
// nontrivial SCC gets the Eades/Lin/Smyth greedy sequence of its subgraph
// — unless that sequence would lag no fewer edges than the element-index
// order, in which case the SCC keeps element indices, so the feedback-arc
// lag set can never exceed the element-index one.
func feedbackArcPositions(in Input, c *Condensation) []int32 {
	n := in.NumElems
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = int32(v)
	}
	size := make([]int, c.NumComps)
	for v := 0; v < n; v++ {
		size[c.Comp[v]]++
	}
	// Members ascending by element id (the loop order), unique intra-SCC
	// edges per component in the canonical (ascending To, upwind order)
	// sequence.
	members := make([][]int32, c.NumComps)
	edges := make([][]Edge, c.NumComps)
	for v := 0; v < n; v++ {
		if cc := c.Comp[v]; size[cc] > 1 {
			members[cc] = append(members[cc], int32(v))
		}
	}
	seen := make(map[Edge]bool)
	for e := 0; e < n; e++ {
		for _, u := range in.Upwind[e] {
			cc := int(c.Comp[u])
			if cc != int(c.Comp[e]) || size[cc] < 2 {
				continue
			}
			edge := Edge{From: u, To: e}
			if !seen[edge] {
				seen[edge] = true
				edges[cc] = append(edges[cc], edge)
			}
		}
	}
	for cc, verts := range members {
		if len(verts) < 2 {
			continue
		}
		seq := greedyFASSequence(verts, edges[cc])
		seqPos := make(map[int32]int32, len(seq))
		for i, v := range seq {
			seqPos[v] = int32(i)
		}
		fas, idx := 0, 0
		for _, ed := range edges[cc] {
			if seqPos[int32(ed.From)] > seqPos[int32(ed.To)] {
				fas++
			}
			if ed.From > ed.To {
				idx++
			}
		}
		if fas < idx {
			for _, v := range seq {
				pos[v] = seqPos[v]
			}
		}
	}
	return pos
}

// greedyFASSequence runs the Eades/Lin/Smyth greedy feedback-arc-set
// peeling over one SCC's subgraph: sinks are repeatedly moved to the tail
// of the sequence, sources to the head, and when neither exists the vertex
// with the largest outdegree-indegree difference joins the head. Edges
// pointing backwards in the returned sequence form the (heuristically
// small) feedback arc set. All choices scan members in ascending element
// id, so the sequence is deterministic and depends only on the subgraph —
// which on a partitioned mesh means only on SCC membership and global
// element ids. verts must be ascending; edges are the unique intra-SCC
// edges. Quadratic scans per removal: mesh SCCs are small (tens of
// elements on the bench meshes), so simplicity wins over a bucket queue.
func greedyFASSequence(verts []int32, edges []Edge) []int32 {
	m := len(verts)
	idxOf := make(map[int32]int, m)
	for i, v := range verts {
		idxOf[v] = i
	}
	out := make([][]int, m)
	in := make([][]int, m)
	outdeg := make([]int, m)
	indeg := make([]int, m)
	for _, ed := range edges {
		u, e := idxOf[int32(ed.From)], idxOf[int32(ed.To)]
		out[u] = append(out[u], e)
		in[e] = append(in[e], u)
		outdeg[u]++
		indeg[e]++
	}
	removed := make([]bool, m)
	remove := func(i int) {
		removed[i] = true
		for _, j := range out[i] {
			if !removed[j] {
				indeg[j]--
			}
		}
		for _, j := range in[i] {
			if !removed[j] {
				outdeg[j]--
			}
		}
	}
	head := make([]int32, 0, m)
	var tail []int32 // removal order; reversed onto the end of head
	left := m
	for left > 0 {
		// Exhaust sinks (vertices with no remaining successors; isolated
		// vertices count — their position is irrelevant), then sources.
		progressed := true
		for progressed {
			progressed = false
			for i := 0; i < m; i++ {
				if !removed[i] && outdeg[i] == 0 {
					remove(i)
					left--
					tail = append(tail, verts[i])
					progressed = true
				}
			}
		}
		progressed = true
		for progressed {
			progressed = false
			for i := 0; i < m; i++ {
				if !removed[i] && indeg[i] == 0 {
					remove(i)
					left--
					head = append(head, verts[i])
					progressed = true
				}
			}
		}
		if left == 0 {
			break
		}
		best, bestDelta := -1, 0
		for i := 0; i < m; i++ {
			if removed[i] {
				continue
			}
			if d := outdeg[i] - indeg[i]; best < 0 || d > bestDelta {
				best, bestDelta = i, d
			}
		}
		remove(best)
		left--
		head = append(head, verts[best])
	}
	for i := len(tail) - 1; i >= 0; i-- {
		head = append(head, tail[i])
	}
	return head
}

// ---- bitmap deduplication ----

// BitmapDedup deduplicates per-ordinate classification bitmaps by FNV-1a
// hash plus exact comparison, so a consumer classifies (condenses,
// schedules) each distinct sweep topology exactly once and maps every
// other ordinate onto the result. On mildly twisted meshes all angles of
// an octant typically share one classification, cutting setup work 8x.
type BitmapDedup struct {
	buckets map[uint64][]dedupEntry
}

type dedupEntry struct {
	bits []uint64
	idx  int
}

// NewBitmapDedup returns an empty deduplicator.
func NewBitmapDedup() *BitmapDedup {
	return &BitmapDedup{buckets: make(map[uint64][]dedupEntry)}
}

func hashWords(bits []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range bits {
		for i := 0; i < 8; i++ {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup returns the index stored for an identical bitmap, or -1.
func (d *BitmapDedup) Lookup(bits []uint64) int {
	for _, e := range d.buckets[hashWords(bits)] {
		if equalWords(e.bits, bits) {
			return e.idx
		}
	}
	return -1
}

// Insert records bits -> idx. The caller must not mutate bits afterwards.
func (d *BitmapDedup) Insert(bits []uint64, idx int) {
	key := hashWords(bits)
	d.buckets[key] = append(d.buckets[key], dedupEntry{bits: bits, idx: idx})
}
