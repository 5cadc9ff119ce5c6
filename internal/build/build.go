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

	// Cut replaces the build's own condensation with one rank's share of
	// a whole-domain condensation (see Cut); its content joins the key.
	Cut *Cut

	// External declares the streamed subdomain-boundary faces whose
	// canonical normals join the inflow classification (and therefore the
	// cache key).
	External []ExternalFace
}

// Key returns the canonical content fingerprint of the Spec: mesh
// geometry and connectivity, quadrature, cycle handling (a Cut by its lag
// sets' key and its global ids) and external faces. Two Specs with equal
// keys build interchangeable Artifacts.
func (s *Spec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1|mesh:%s|o:%d|q:%s", s.Mesh.Fingerprint(), s.Order, quadFingerprint(s.Quad))
	if s.AllowCycles {
		fmt.Fprintf(&b, "|cy:%d", int(s.CycleOrder))
	}
	if s.Cut != nil {
		fmt.Fprintf(&b, "|lag:%s|g:%s", s.Cut.Sets.Key, intsFingerprint(s.Cut.Global))
	}
	if len(s.External) > 0 {
		fmt.Fprintf(&b, "|ext:%s", externalFingerprint(s.External))
	}
	return b.String()
}

// Artifact is the immutable product of one Build: everything a solver
// needs that is a pure function of (mesh, quadrature, cycle order or
// cut, external faces). Safe to share across solvers, ranks and
// goroutines; nothing in it is written after Build returns.
type Artifact struct {
	// Key is the content fingerprint of the Spec it was built from.
	Key string

	NumElems  int
	NumAngles int

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

// Compatible reports whether the artifact can serve the given Spec: an
// exact key comparison.
func (a *Artifact) Compatible(s *Spec) error {
	if k := s.Key(); k != a.Key {
		return fmt.Errorf("build: artifact key %s does not match problem key %s", a.Key, k)
	}
	return nil
}

// Build runs the full problem build for spec: reference element,
// face-node matching, the topology stage (Topologies: per-ordinate
// classification with deduplicated schedules, condensations and counter
// graphs), then the element matrices (in parallel), the DSA geometry and
// the element geometry classes. No per-ordinate matrix is stored: a
// local operator that is worth keeping is kept, factored, by the solve
// layer (core/faccache.go).
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
	topos, distinct, err := Topologies(spec, re)
	if err != nil {
		return nil, err
	}
	nE := spec.Mesh.NumElems()

	// Element geometry classes: elements of one class have
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

	art := &Artifact{
		Key:       spec.Key(),
		NumElems:  nE,
		NumAngles: spec.Quad.NumAngles(),
		Re:        re,
		Conn:      conn,
		EM:        em,
		Topos:     topos,
		Distinct:  distinct,
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

// Topologies is Build's topology stage, a function of the mesh,
// quadrature, External declarations and cut or cycle order alone: it
// needs no element matrices (re, the spec's reference element, supplies
// FaceUnitNormal). It classifies every face for every ordinate and
// builds the schedule, condensation and counter graph of each distinct
// classification once; distinct counts them. See Cut and
// core.Config.CycleOrder for the lag decisions and the dedup key. The
// counter graph is always built, since the concurrency scheme is a
// solve-time choice outside the cache key.
func Topologies(spec Spec, re *fem.RefElement) (topos []*Topology, distinct int, err error) {
	nE := spec.Mesh.NumElems()
	cl := newClassifier(spec.Mesh, re, spec.External)
	dedup := sweep.NewBitmapDedup()
	var uniq []*Topology
	topos = make([]*Topology, spec.Quad.NumAngles())
	cut := spec.Cut

	for a := range topos {
		om := spec.Quad.Angles[a].Omega
		t := &Topology{Inflow: cl.inflow(om)}
		in := sweep.Input{NumElems: nE, Upwind: cl.upwind(t.Inflow)}
		// A partitioned run's cut decides which couplings are lagged, the
		// build's own condensation otherwise.
		var cutEdges []sweep.Edge
		if cut != nil {
			cutEdges = cut.edges(a, in.Upwind)
		}
		lagBits := cl.lagFaces(t.Inflow, cutEdges)
		// Deduplicate on the classification bitmap; externally supplied
		// lag decisions join the key (with the build's own condensation
		// the lag set is a pure function of the inflow bits and the
		// cycle-order strategy). The strategy word also joins the key
		// under AllowCycles, so the key stays self-describing.
		key := t.Inflow
		if spec.AllowCycles || lagBits != nil {
			key = append(make([]uint64, 0, 2*cl.words+1), t.Inflow...)
			if lagBits != nil {
				key = append(key, lagBits...)
			}
			key = append(key, uint64(spec.CycleOrder))
		}
		if idx := dedup.Lookup(key); idx >= 0 {
			topos[a] = uniq[idx]
			continue
		}
		condensations.Add(1)
		var sched *sweep.Schedule
		switch {
		case !spec.AllowCycles:
			sched, err = sweep.Build(in)
		case cut != nil:
			sched, err = sweep.BuildCut(in, cutEdges)
		default:
			sched, err = sweep.BuildWithLagging(in, spec.CycleOrder)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("build: scheduling angle %d (omega %v): %w", a, om, err)
		}
		t.Sched = sched
		t.setLagged(cl.lagFaces(t.Inflow, sched.Lagged))
		t.Graph, err = sweep.BuildGraph(in, sched.Lagged)
		if err != nil {
			return nil, 0, fmt.Errorf("build: task graph for angle %d (omega %v): %w", a, om, err)
		}
		dedup.Insert(key, len(uniq))
		uniq = append(uniq, t)
		topos[a] = t
	}
	return topos, len(uniq), nil
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
