package build

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"unsnap/internal/accel"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
)

// Spec names one build input. Mesh, Order and Quad are mandatory; the
// remaining fields mirror the topology-relevant knobs of core.Config.
type Spec struct {
	Mesh  *mesh.Mesh
	Order int // finite element order (>= 1)
	Quad  *quadrature.Set

	// Threads bounds the build's own parallelism (element-matrix
	// integration); <= 0 means GOMAXPROCS. It
	// does not join the cache key — the product is identical at any
	// thread count.
	Threads int

	// AllowCycles and CycleOrder select the cycle condensation exactly as
	// core.Config does; both join the cache key whenever cycles are
	// allowed, so a cached topology can never be reused under a different
	// within-SCC cut rule.
	AllowCycles bool
	CycleOrder  sweep.CycleOrder

	// CycleLag overrides the build's own condensation with externally
	// computed lag decisions (see core.Config.CycleLag). A closure is
	// opaque, so a Spec carrying one is only cacheable when CycleLagKey
	// names its content.
	CycleLag func(angle, from, to int) bool
	// CycleLagKey is the canonical name of CycleLag's decision content
	// (the distributed driver derives it from the global lag-set key and
	// the rank coordinates). Empty with a non-nil CycleLag marks the Spec
	// uncacheable.
	CycleLagKey string

	// External declares the streamed subdomain-boundary faces whose
	// canonical normals join the inflow classification (and therefore the
	// cache key).
	External []ExternalFace
}

// Cacheable reports whether the Spec's build product is fully described
// by Key: false only when an anonymous CycleLag closure is in play.
func (s *Spec) Cacheable() bool {
	return s.CycleLag == nil || s.CycleLagKey != ""
}

// Key returns the canonical content fingerprint of the Spec: mesh
// geometry and connectivity, quadrature, cycle handling and external
// faces. Two Specs with equal keys build interchangeable Artifacts.
func (s *Spec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1|mesh:%s|o:%d|q:%s", s.Mesh.Fingerprint(), s.Order, quadFingerprint(s.Quad))
	if s.AllowCycles {
		fmt.Fprintf(&b, "|cy:%d", int(s.CycleOrder))
	}
	if s.CycleLag != nil {
		fmt.Fprintf(&b, "|lag:%s", s.CycleLagKey)
	}
	if len(s.External) > 0 {
		fmt.Fprintf(&b, "|ext:%s", externalFingerprint(s.External))
	}
	return b.String()
}

// Artifact is the immutable product of one Build: everything a solver
// needs that is a pure function of (mesh, quadrature, cycle order,
// external faces). Safe to share across solvers, ranks and goroutines;
// nothing in it is written after Build returns.
type Artifact struct {
	// Key is the Spec's content fingerprint, empty when the Spec was
	// uncacheable (anonymous CycleLag closure).
	Key string
	// MeshFP is the mesh fingerprint alone (always set), for structural
	// compatibility checks on injected artifacts.
	MeshFP string

	NumElems    int
	NumAngles   int
	Order       int
	AllowCycles bool
	CycleOrder  sweep.CycleOrder

	Re   *fem.RefElement
	Conn *mesh.Connectivity
	// EM holds each element's matrices: one shared set per geometry
	// class (GeomClass), so elements of a class share a pointer. Read
	// only, like the whole artifact.
	EM []*fem.ElementMatrices
	// Topos holds the per-ordinate sweep topologies (deduplicated
	// pointers: ordinates with identical classifications share one).
	Topos []*Topology
	// Distinct counts the deduplicated topologies behind Topos.
	Distinct int

	// Accel is the geometric skeleton of the synthetic diffusion
	// accelerator (face areas and distances, cell volumes, node
	// quadrature weights) — cross-section-independent, so it lives here
	// and warm solves get DSA setup for free.
	Accel *accel.Geometry

	// GeomClass assigns each element a geometry-equivalence class id:
	// elements in one class have bitwise-identical element matrices
	// (axis-aligned boxes of equal extents; every other element is a
	// class of its own). GeomClasses is the class count. The batched
	// kernel's factor cache keys on (class, material).
	GeomClass   []int32
	GeomClasses int

	size int64
}

// SizeBytes reports the artifact's approximate resident size, the unit
// the Cache's byte budget is accounted in.
func (a *Artifact) SizeBytes() int64 { return a.size }

// Compatible reports whether the artifact can serve the given Spec. With
// both sides cacheable it is an exact key comparison; a Spec carrying an
// anonymous CycleLag closure can only be checked structurally, and the
// caller owns the guarantee that the closure matches the one the
// artifact was built with.
func (a *Artifact) Compatible(s *Spec) error {
	if s.Cacheable() && a.Key != "" {
		if k := s.Key(); k != a.Key {
			return fmt.Errorf("build: artifact key %s does not match problem key %s", a.Key, k)
		}
		return nil
	}
	if fp := s.Mesh.Fingerprint(); fp != a.MeshFP {
		return fmt.Errorf("build: artifact mesh %s does not match problem mesh %s", a.MeshFP, fp)
	}
	if s.Order != a.Order {
		return fmt.Errorf("build: artifact order %d does not match problem order %d", a.Order, s.Order)
	}
	if n := s.Quad.NumAngles(); n != a.NumAngles {
		return fmt.Errorf("build: artifact has %d angles, problem has %d", a.NumAngles, n)
	}
	if s.AllowCycles != a.AllowCycles || s.CycleOrder != a.CycleOrder {
		return fmt.Errorf("build: artifact cycle handling (allow %t, order %v) does not match problem (allow %t, order %v)",
			a.AllowCycles, a.CycleOrder, s.AllowCycles, s.CycleOrder)
	}
	return nil
}

// Build runs the full problem build for spec: reference element,
// face-node matching, element matrices (in parallel), per-ordinate
// classification with deduplicated schedules, condensations and counter
// graphs, the DSA geometry and the element geometry classes. No
// per-ordinate matrix is stored: a local operator that is worth keeping
// is kept, factored, by the solve layer (core/faccache.go).
func Build(spec Spec) (*Artifact, error) {
	threads := spec.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	builds.Add(1)

	re, err := fem.NewRefElement(spec.Order)
	if err != nil {
		return nil, err
	}
	conn, err := spec.Mesh.Match(re)
	if err != nil {
		return nil, err
	}
	nE := spec.Mesh.NumElems()
	nA := spec.Quad.NumAngles()

	// Element geometry classes first: elements of one class have
	// bitwise-identical matrices (axis-aligned boxes of equal extents;
	// every other element is a class of its own), so each class's are
	// computed once, from its first element, and shared by pointer.
	class := make([]int32, nE)
	var first []int // each class's first element
	boxClasses := make(map[[3]float64]int32, 16)
	for e := 0; e < nE; e++ {
		if _, ext, ok := spec.Mesh.Elems[e].Geometry().IsAxisAlignedBox(); ok {
			id, seen := boxClasses[ext]
			if !seen {
				id = int32(len(first))
				first = append(first, e)
				boxClasses[ext] = id
			}
			class[e] = id
			continue
		}
		class[e] = int32(len(first))
		first = append(first, e)
	}
	classEM := make([]*fem.ElementMatrices, len(first))
	var emErr error
	var emMu sync.Mutex
	parallelFor(threads, len(first), func(_, c int) {
		e := first[c]
		m, err := re.ComputeMatrices(spec.Mesh.Elems[e].Geometry())
		if err != nil {
			emMu.Lock()
			if emErr == nil {
				emErr = fmt.Errorf("build: element %d: %w", e, err)
			}
			emMu.Unlock()
			return
		}
		classEM[c] = m
	})
	if emErr != nil {
		return nil, emErr
	}
	em := make([]*fem.ElementMatrices, nE)
	for e, c := range class {
		em[e] = classEM[c]
	}

	topos, distinct, err := buildTopologies(&spec, em, nE, nA)
	if err != nil {
		return nil, err
	}

	art := &Artifact{
		MeshFP:      spec.Mesh.Fingerprint(),
		NumElems:    nE,
		NumAngles:   nA,
		Order:       spec.Order,
		AllowCycles: spec.AllowCycles,
		CycleOrder:  spec.CycleOrder,
		Re:          re,
		Conn:        conn,
		EM:          em,
		Topos:       topos,
		Distinct:    distinct,
	}
	if spec.Cacheable() {
		art.Key = spec.Key()
	}

	// DSA geometric operator: a pure function of the mesh and element
	// matrices already in hand, cheap next to classification, and free on
	// every warm-cache solve.
	accelGeoms.Add(1)
	art.Accel = accel.BuildGeometry(spec.Mesh, em)
	art.GeomClass = class
	art.GeomClasses = len(first)
	art.size = artifactSize(art)
	return art, nil
}

// buildTopologies classifies every face for every ordinate and builds
// (or reuses) the sweep schedule, cycle condensation and counter graph
// for each distinct classification, deduplicated through the shared
// bitmap mechanism (sweep.BitmapDedup). This is the former
// core.Solver.buildTopologies, verbatim in structure; see
// core.Config.CycleLag and CycleOrder for the semantics of the lag
// decisions and the dedup key. The counter graph is always built — the
// concurrency scheme is a solve-time choice and must not join the cache
// key — so one artifact serves engine-backed and bucket executors alike.
func buildTopologies(spec *Spec, em []*fem.ElementMatrices, nE, nA int) ([]*Topology, int, error) {
	m := spec.Mesh
	words := (nE*fem.NumFaces + 63) / 64
	dedup := sweep.NewBitmapDedup()
	var distinct []*Topology
	topos := make([]*Topology, nA)
	lagCB := spec.CycleLag

	// External-face index: boundary faces listed in spec.External are
	// classified by their canonical pair normal instead of the local one.
	var faceIdx []int32
	if len(spec.External) > 0 {
		faceIdx = make([]int32, nE*fem.NumFaces)
		for i := range faceIdx {
			faceIdx[i] = -1
		}
		for i, ef := range spec.External {
			faceIdx[ef.Elem*fem.NumFaces+ef.Face] = int32(i)
		}
	}

	for a := 0; a < nA; a++ {
		classifications.Add(1)
		om := spec.Quad.Angles[a].Omega
		t := &Topology{Inflow: make([]uint64, words)}
		var lagBits []uint64
		var lagEdges []sweep.Edge
		up := make([][]int, nE)
		// addDep records the dependency of element e on upwind neighbour u
		// through face f of e, consulting the external lag decisions when
		// a partitioned run supplies them.
		addDep := func(u, e, f int) {
			up[e] = append(up[e], u)
			if lagCB != nil && lagCB(a, u, e) {
				if lagBits == nil {
					lagBits = make([]uint64, words)
				}
				setFaceBit(lagBits, e, f)
				lagEdges = append(lagEdges, sweep.Edge{From: u, To: e})
			}
		}
		for e := 0; e < nE; e++ {
			for f := 0; f < fem.NumFaces; f++ {
				fc := m.Elems[e].Faces[f]
				nrm := em[e].Normal[f]
				on := om[0]*nrm[0] + om[1]*nrm[1] + om[2]*nrm[2]
				if fc.Neighbor < 0 {
					if faceIdx != nil {
						if fi := faceIdx[e*fem.NumFaces+f]; fi >= 0 {
							// Streamed cross-rank face: classify by the pair's
							// canonical normal so both sides agree exactly (and
							// match the single-domain lower-element-side rule)
							// even when the direction is nearly tangent.
							ef := &spec.External[fi]
							if ExternalInflow(om, ef.Normal, ef.Canonical) {
								t.setInflow(e, f)
							}
							continue
						}
					}
					if on < 0 {
						t.setInflow(e, f)
					}
					continue
				}
				// Classify each interior face once, from the lower element
				// index side, so both sides always agree even when the
				// direction is nearly tangent to a twisted face.
				if fc.Neighbor > e {
					if on < 0 {
						t.setInflow(e, f)
						addDep(fc.Neighbor, e, f)
					} else {
						t.setInflow(fc.Neighbor, fc.NeighborFace)
						addDep(e, fc.Neighbor, fc.NeighborFace)
					}
				}
			}
		}
		// Deduplicate on the classification bitmap; externally supplied
		// lag decisions join the key (with the build's own condensation
		// the lag set is a pure function of the inflow bits and the
		// cycle-order strategy). The strategy word also joins the key
		// under AllowCycles, so the key stays self-describing.
		key := t.Inflow
		if spec.AllowCycles || lagBits != nil {
			key = append(make([]uint64, 0, 2*words+1), t.Inflow...)
			if lagBits != nil {
				key = append(key, lagBits...)
			}
			key = append(key, uint64(spec.CycleOrder))
		}
		if idx := dedup.Lookup(key); idx >= 0 {
			topos[a] = distinct[idx]
			continue
		}
		condensations.Add(1)
		in := sweep.Input{NumElems: nE, Upwind: up}
		var sched *sweep.Schedule
		var err error
		switch {
		case !spec.AllowCycles:
			sched, err = sweep.Build(in)
		case lagCB != nil:
			sched, err = sweep.BuildCut(in, lagEdges)
		default:
			sched, err = sweep.BuildWithLagging(in, spec.CycleOrder)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("build: scheduling angle %d (omega %v): %w", a, om, err)
		}
		t.Sched = sched
		if lagCB == nil && len(sched.Lagged) > 0 {
			// Own-condensation path: derive the per-face lag marks from the
			// lag set (the callback path set them during the scan).
			lagBits = make([]uint64, words)
			for _, l := range sched.Lagged {
				for f := 0; f < fem.NumFaces; f++ {
					if m.Elems[l.To].Faces[f].Neighbor == l.From && t.IsInflow(l.To, f) {
						setFaceBit(lagBits, l.To, f)
					}
				}
			}
		}
		t.setLagged(lagBits)
		t.Graph, err = sweep.BuildGraph(in, sched.Lagged)
		if err != nil {
			return nil, 0, fmt.Errorf("build: task graph for angle %d (omega %v): %w", a, om, err)
		}
		dedup.Insert(key, len(distinct))
		distinct = append(distinct, t)
		topos[a] = t
	}
	return topos, len(distinct), nil
}

// artifactSize sums the artifact's large allocations (float64 and int32
// payloads; struct headers and small slices are noise at cache scale),
// each geometry class's shared element matrices once.
func artifactSize(a *Artifact) int64 {
	var n int64
	seenEM := make(map[*fem.ElementMatrices]bool, a.GeomClasses)
	for _, em := range a.EM {
		if seenEM[em] {
			continue
		}
		seenEM[em] = true
		n += int64(len(em.Mass)) * 8
		for d := 0; d < 3; d++ {
			n += int64(len(em.Grad[d])) * 8
		}
		for f := 0; f < fem.NumFaces; f++ {
			for d := 0; d < 3; d++ {
				n += int64(len(em.Face[f][d])) * 8
			}
		}
	}
	if a.Conn != nil {
		for e := range a.Conn.Perm {
			for f := 0; f < fem.NumFaces; f++ {
				n += int64(len(a.Conn.Perm[e][f])) * 8
			}
		}
	}
	seen := make(map[*Topology]bool, a.Distinct)
	for _, t := range a.Topos {
		if seen[t] {
			continue
		}
		seen[t] = true
		n += int64(len(t.Inflow)+len(t.Lagged)) * 8
		n += int64(len(t.lagRank)) * 4
		if t.Sched != nil {
			n += int64(len(t.Sched.Lagged)) * 16
			for _, b := range t.Sched.Buckets {
				n += int64(len(b)) * 8
			}
		}
		if t.Graph != nil {
			n += int64(len(t.Graph.Indeg)+len(t.Graph.DownOff)+len(t.Graph.Down)+len(t.Graph.Roots)) * 4
		}
	}
	if g := a.Accel; g != nil {
		n += int64(len(g.Vol)+len(g.W)) * 8
		n += int64(len(g.Interior)) * 32
		n += int64(len(g.Boundary)) * 24
	}
	n += int64(len(a.GeomClass)) * 4
	return n
}

// KernelDims is the scratch-shape metadata of one sweep task's kernel:
// the local system size and face width every per-worker scratch buffer is
// sized from. It lives on the artifact so the solve layer pre-sizes all
// kernel scratch at pool creation — the steady-state task path never
// allocates.
type KernelDims struct {
	// NN is the nodes per element: the local dense systems are NN x NN.
	NN int
	// NF is the nodes per face: upwind gathers and face-matrix blocks
	// (NF x NF) are shaped by it.
	NF int
}

// KernelDims reports the kernel scratch shape baked into the artifact.
func (a *Artifact) KernelDims() KernelDims {
	return KernelDims{NN: a.Re.N, NF: a.Re.NF}
}
