package core

import (
	"fmt"
	"math"
	"runtime"

	"unsnap/internal/build"
	"unsnap/internal/enum"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
	"unsnap/internal/xs"
)

// Layout selects the ordering of the element, group and node extents in
// the angular flux, scalar flux and source arrays. The paper pairs each
// loop order with the matching layout, node fastest; the engine, whose
// task is one element's every group, keeps the groups fastest instead.
type Layout int

const (
	// LayoutEG stores [angle][element][group][node]: adjacent elements are
	// numGroups*numNodes apart (the "4 kB stride" layout for linear
	// elements with 64 groups).
	LayoutEG Layout = iota
	// LayoutGE stores [angle][group][element][node]: adjacent elements are
	// numNodes apart (the "64 byte stride" layout for linear elements).
	LayoutGE
	// LayoutLanes is the engine's: the angular flux psi (and the stored
	// M psi_prev) and the stored source products mq and mq1 are
	// [angle][element][node][group], so one node's groups are
	// contiguous — the vector lanes of the task's kernels (kernel.go). The
	// scalar flux and the outer sources keep LayoutEG's order. With one
	// group it is LayoutEG.
	LayoutLanes
)

// Scheme names a concurrency scheme from the paper's Figures 3 and 4. The
// mnemonic reads the loop nest from outer to inner with capital letters
// marking the threaded loops (the bold face in the paper's legend).
type Scheme int

const (
	// SchemeEngine is the default executor: the persistent worker-pool
	// sweep engine. Long-lived workers pop ready (angle, element) tasks
	// from work-stealing deques, firing each element the moment its last
	// upwind dependency resolves (counter-driven wavefronts instead of
	// bucket barriers), with every ordinate of an octant in flight at
	// once and a deterministic ordered scalar-flux reduction once per
	// sweep. See engine.go.
	SchemeEngine Scheme = iota
	// SchemeAEg: angle / element / group, threading the elements of each
	// schedule bucket; groups run sequentially inside each element.
	SchemeAEg
	// SchemeAEG: angle / element / group with the element and group loops
	// collapsed and threaded together (OpenMP collapse(2) semantics:
	// lexicographic with group fastest).
	SchemeAEG
	// SchemeAeG: angle / element / group, threading only the group loop.
	SchemeAeG
	// SchemeAGe: angle / group / element, threading the group loop.
	SchemeAGe
	// SchemeAGE: angle / group / element with the two loops collapsed and
	// threaded (element fastest).
	SchemeAGE
	// SchemeAgE: angle / group / element, threading the element loop.
	SchemeAgE

	numSchemes
)

// Schemes lists every scheme in declaration order.
func Schemes() []Scheme {
	out := make([]Scheme, numSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// schemeNames are the paper-style names, threaded loops capitalised.
var schemeNames = []string{
	SchemeEngine: "engine",
	SchemeAEg:    "angle/ELEMENT/group",
	SchemeAEG:    "angle/ELEMENT/GROUP",
	SchemeAeG:    "angle/element/GROUP",
	SchemeAGe:    "angle/GROUP/element",
	SchemeAGE:    "angle/GROUP/ELEMENT",
	SchemeAgE:    "angle/group/ELEMENT",
}

// String returns the paper-style name with threaded loops capitalised.
func (s Scheme) String() string { return enum.Name(schemeNames, s) }

// MarshalText spells s as String does.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a String spelling; the empty text is SchemeEngine.
func (s *Scheme) UnmarshalText(text []byte) error { return enum.Unmarshal(schemeNames, s, text) }

// ParseScheme resolves a scheme name (as produced by String, case-exact).
func ParseScheme(name string) (Scheme, error) { return enum.Parse[Scheme](schemeNames, name) }

// Layout returns the array layout that matches the scheme's loop order.
func (s Scheme) Layout() Layout {
	switch s {
	case SchemeAGe, SchemeAGE, SchemeAgE:
		return LayoutGE
	case SchemeEngine:
		return LayoutLanes
	default:
		return LayoutEG
	}
}

// EngineBacked reports whether the scheme executes on the persistent sweep
// engine rather than the legacy bucket-by-bucket executors. The pipelined
// halo protocol requires it: only the counter-driven task graph can hold
// remote upwind faces as latent dependencies (the bucket executors would
// block a whole wavefront level on them).
func (s Scheme) EngineBacked() bool { return s == SchemeEngine }

// SolverKind selects the local dense solver (Table II) of the scalar
// kernel and the bucket schemes. The batched kernel has one solve path
// (la.FactorLanes + la.TriSolveLanes, kernel.go), bitwise both kinds.
type SolverKind int

const (
	// SolverGE is the hand-written Gaussian elimination.
	SolverGE SolverKind = iota
	// SolverDGESV is the LAPACK-style blocked LU standing in for MKL.
	SolverDGESV
)

var solverNames = []string{SolverGE: "GE", SolverDGESV: "DGESV"}

// String names the solver kind.
func (k SolverKind) String() string { return enum.Name(solverNames, k) }

// MarshalText spells k as String does.
func (k SolverKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a String spelling; the empty text is SolverGE.
func (k *SolverKind) UnmarshalText(text []byte) error { return enum.Unmarshal(solverNames, k, text) }

// KernelMode selects the engine task-body implementation (the assemble +
// small-dense-solve kernel run for every (ordinate, element) task).
type KernelMode int

const (
	// KernelBatched (the default) runs all energy groups of a task as one
	// batched kernel: the RHS block is assembled for every group in one
	// pass (upwind gather indices and face-matrix blocks hoisted out of
	// the group loop), and groups are factored and solved in panels of up
	// to four, one group per vector lane (la.FactorLanes,
	// la.TriSolveLanes); groups sharing a sigma_t value share one
	// factorisation. Bitwise identical to KernelScalar: the
	// batching reorders work across independent groups, never the
	// floating-point sequence within one.
	KernelBatched KernelMode = iota
	// KernelScalar runs the pre-batching per-group kernel (assemble and
	// solve each group independently), kept as the A/B baseline for the
	// kernel benchmark and the bitwise-parity tests.
	KernelScalar
)

// AccelMode selects the between-inner iteration accelerator.
type AccelMode int

const (
	// AccelNone runs plain source iteration (bitwise identical to the
	// pre-acceleration solver).
	AccelNone AccelMode = iota
	// AccelDSA applies synthetic diffusion acceleration between inners:
	// after each sweep a per-group SPD coarse diffusion solve
	// (internal/accel) estimates the slowly converging diffusive
	// component of the remaining error from the cell-averaged flux
	// change and adds it to the scalar flux. The converged answer is
	// unchanged — the correction vanishes at the fixed point — but
	// scattering-dominated problems reach it in far fewer inners.
	AccelDSA
)

var accelNames = []string{AccelNone: "none", AccelDSA: "dsa"}

// String names the acceleration mode.
func (m AccelMode) String() string { return enum.Name(accelNames, m) }

// MarshalText spells m as String does.
func (m AccelMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a String spelling; the empty text is AccelNone.
func (m *AccelMode) UnmarshalText(text []byte) error { return enum.Unmarshal(accelNames, m, text) }

// Config assembles a solver.
type Config struct {
	Mesh  *mesh.Mesh
	Order int             // finite element order (>= 1)
	Quad  *quadrature.Set // angular quadrature
	Lib   *xs.Library     // multigroup cross sections

	Scheme  Scheme
	Threads int        // worker pool size; <= 0 means GOMAXPROCS
	Solver  SolverKind // local solver choice
	Kernel  KernelMode // engine task-body implementation (see KernelMode)

	Epsi      float64 // pointwise relative convergence tolerance
	MaxInners int     // inner (within-group source) iterations per outer
	MaxOuters int     // outer (group-to-group Jacobi) iterations
	// ForceIterations disables the convergence exits so runs execute
	// exactly MaxOuters x MaxInners sweeps, as the paper does for timing.
	ForceIterations bool

	// AllowCycles enables cycle-aware sweep topologies (the paper's
	// future-work extension): the build layer condenses each ordinate's
	// upwind graph into its strongly connected components once, up front
	// (or reads a Cut's decisions), and the intra-SCC back edges are
	// demoted to lagged couplings that read the previous iterate's upwind
	// values on the cut faces (the solver's lag store, refilled from psi
	// after every sweep) instead of imposing an ordering. Lagged edges therefore cost no
	// scheduling at all: cyclic meshes keep the counter-driven engine,
	// its fused eight-octant phase, and the deterministic ordered flux
	// reduction; the legacy bucket executors share the identical lag set
	// and lagged reads, so both paths agree to machine precision
	// iteration by iteration. Without this flag a cyclic mesh fails at
	// setup with sweep.ErrCycle.
	AllowCycles bool

	// Cut replaces the solver's own cycle analysis with one rank's share
	// of a whole-domain condensation (AllowCycles must be set): the global
	// lag sets and the rank's local-to-global element ids. The pipelined
	// protocol builds its ranks with it, so a rank never breaks a
	// cross-rank cycle differently than the single-domain solver would;
	// the cut must leave every ordinate's remaining local graph acyclic.
	// It is data and joins the artifact's content key. Nil means the
	// solver condenses its own (sub)mesh.
	Cut *Cut

	// CycleOrder selects the within-SCC ordering strategy of the cycle
	// condensation (meaningful with AllowCycles): OrderElementIndex (the
	// default) lags the intra-SCC edges running against the element
	// index; OrderFeedbackArc runs a greedy feedback-arc-set heuristic
	// per SCC that demotes strictly fewer couplings on real twisted
	// meshes, shrinking both the per-sweep lagged reads and the
	// fixed-point error the lag introduces. Every strategy is a pure
	// function of SCC membership and element ids, so a partitioned
	// pipelined run — which condenses the global mesh once and hands each
	// rank its Cut — reproduces the single-domain lag set exactly, as long
	// as every rank and the comm layer run the same CycleOrder; the build
	// folds the strategy into its topology deduplication key and the
	// artifact key so two components can never silently disagree about
	// which edges a shared topology lags.
	CycleOrder sweep.CycleOrder

	// PreAssembled pre-assembles and pre-factorises every local matrix at
	// setup (section IV-B1's proposed optimisation); sweeps then only
	// build right-hand sides and run the factored triangular solves.
	PreAssembled bool

	// Instrument enables the per-phase assembly/solve timers needed by
	// Table II (small overhead per local solve, as the paper notes).
	Instrument bool

	// Progress, when non-nil, is called by Iterate after every completed
	// inner iteration with the iteration indices and the flux change (see
	// Progress). It runs synchronously on the iteration goroutine between
	// inners — the hook for per-inner streaming in long-running services.
	Progress func(Progress)

	// Reflect selects specular reflection (SNAP's reflective boundary
	// condition) on the domain faces normal to each marked dimension; the
	// others are vacuum. A reflective inflow face of ordinate a reads the
	// outgoing flux of the mirror ordinate on the same element's face
	// nodes, read from psi, which holds one iterate. Ordinates are swept
	// octant by octant in a fixed order, so a mirror in an earlier octant
	// gives this sweep's value and one in a later octant (not yet swept)
	// the previous sweep's, on cyclic meshes as on acyclic ones; the
	// engine orders each such pair of tasks by one graph edge inside its
	// fused phase (engine.go). The fixed point is the one of the exact
	// reflection, reached in a few more inners than a vacuum problem
	// needs.
	Reflect [3]bool

	// External declares subdomain-boundary faces whose upwind angular flux
	// a peer rank supplies through per-(face, ordinate) inflow slots
	// (ExternalInflowBuffer), classified by the pair's shared canonical
	// normal. How the sweep is driven picks the reading: SweepAllAngles
	// reads the slots as the caller left them (block Jacobi, any scheme);
	// ArmSweep + FinishSweep (engine only) holds each slot as a latent
	// task-graph dependency that ResolveExternal releases as streamed data
	// arrives, and publishes outgoing flux through the SetPublish hook the
	// moment the owning task completes. Reflect must be unset: the
	// partitioned runs External faces serve do not reflect. Combines with
	// AllowCycles: lagged local couplings read the lag store, the previous
	// sweep's values on the cut faces, and an armed sweep refills it in
	// FinishSweep. See external.go.
	External []ExternalFace

	// Time enables SNAP's time-dependent mode (backward-Euler stepping);
	// nil solves the steady equation.
	Time *TimeConfig

	// ScatOrder selects the scattering anisotropy order: 0 (isotropic,
	// SNAP's and the paper's default) or 1 (linearly anisotropic P1,
	// requiring Lib.ScatterP1). With order 1 the sweep also accumulates
	// the current J = sum_a w_a Omega_a psi_a and the angular source
	// gains the term 3 Omega . (sigma_s1 J).
	ScatOrder int

	// Accelerate selects the between-inner accelerator (see AccelMode).
	// AccelDSA is steady-state, isotropic-scattering only: time-dependent
	// solves and ScatOrder >= 1 are rejected at setup.
	Accelerate AccelMode

	// noFactorCache disables the batched kernel's shared per-(geometry
	// class, material) factor cache; the A/B parity tests use it to pin
	// the cached path bitwise against the private-assembly path.
	noFactorCache bool

	// Artifact injects a pre-built problem artifact (see unsnap.Build /
	// BuildArtifact): New skips the whole build phase — matching, element
	// integration, classification, condensation — and only allocates the
	// per-solve state. The artifact must be compatible with the rest of
	// the configuration (checked by content key).
	Artifact *build.Artifact

	// Cache, when set (and Artifact is nil), is consulted for the
	// problem's build artifact by content key before building: solvers —
	// and the ranks of one distributed driver — sharing a cache share one
	// artifact per distinct topology. Nil builds privately, preserving
	// the old behaviour.
	Cache *build.Cache

	// CacheTenant attributes this configuration's cache traffic (hits,
	// misses, resident bytes) to a named tenant, and CacheTenantBytes
	// bounds that tenant's total resident bytes: when an insert pushes
	// the tenant over its budget, the tenant's own least-recently-used
	// entries are evicted first, so one tenant's mesh churn cannot evict
	// another tenant's hot artifacts. Zero values mean unattributed and
	// unbounded; both are meaningless without Cache.
	CacheTenant      string
	CacheTenantBytes int64
}

// buildSpec projects the topology-relevant configuration into the build
// layer's Spec — the single place that decides which knobs shape the
// artifact (and therefore its cache key).
func (c Config) buildSpec() build.Spec {
	return build.Spec{
		Mesh:        c.Mesh,
		Order:       c.Order,
		Quad:        c.Quad,
		Threads:     c.Threads,
		AllowCycles: c.AllowCycles,
		CycleOrder:  c.CycleOrder,
		Cut:         c.Cut,
		External:    c.External,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Epsi <= 0 {
		c.Epsi = 1e-4
	}
	if c.MaxInners <= 0 {
		c.MaxInners = 5
	}
	if c.MaxOuters <= 0 {
		c.MaxOuters = 1
	}
	return c
}

// validate rejects inconsistent configurations.
func (c Config) validate() error {
	if c.Mesh == nil || c.Mesh.NumElems() == 0 {
		return fmt.Errorf("core: config needs a non-empty mesh")
	}
	if c.Quad == nil || c.Quad.NumAngles() == 0 {
		return fmt.Errorf("core: config needs an angular quadrature")
	}
	if c.Lib == nil || c.Lib.NumGroups < 1 {
		return fmt.Errorf("core: config needs a cross-section library")
	}
	if err := validateLibrary(c.Lib); err != nil {
		return err
	}
	if c.Scheme < 0 || c.Scheme >= numSchemes {
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	}
	if c.Solver != SolverGE && c.Solver != SolverDGESV {
		return fmt.Errorf("core: unknown solver kind %d", c.Solver)
	}
	if c.Kernel != KernelBatched && c.Kernel != KernelScalar {
		return fmt.Errorf("core: unknown kernel mode %d", c.Kernel)
	}
	for _, e := range c.Mesh.Elems {
		if e.Material < 0 || e.Material >= xs.NumMaterials {
			return fmt.Errorf("core: element references unknown material %d", e.Material)
		}
	}
	if c.Cut != nil && !c.AllowCycles {
		return fmt.Errorf("core: a Cut is only meaningful with AllowCycles")
	}
	if !c.CycleOrder.Valid() {
		return fmt.Errorf("core: unknown cycle order %d", int(c.CycleOrder))
	}
	if c.CycleOrder != sweep.OrderElementIndex && !c.AllowCycles {
		return fmt.Errorf("core: CycleOrder %v is only meaningful with AllowCycles", c.CycleOrder)
	}
	switch c.ScatOrder {
	case 0:
	case 1:
		if c.Lib.ScatterP1 == nil {
			return fmt.Errorf("core: ScatOrder 1 requires a library with P1 scattering data")
		}
	default:
		return fmt.Errorf("core: scattering order %d not supported (0 or 1)", c.ScatOrder)
	}
	if c.Accelerate != AccelNone && c.Accelerate != AccelDSA {
		return fmt.Errorf("core: unknown acceleration mode %d", int(c.Accelerate))
	}
	if c.Accelerate == AccelDSA && c.Time != nil {
		return fmt.Errorf("core: AccelDSA does not support time-dependent mode")
	}
	if c.Accelerate == AccelDSA && c.ScatOrder >= 1 {
		return fmt.Errorf("core: AccelDSA requires isotropic scattering (ScatOrder 0), got %d", c.ScatOrder)
	}
	if c.External != nil {
		if err := c.validateExternal(); err != nil {
			return err
		}
	}
	return nil
}

// validateLibrary rejects NaN or negative cross sections up front: a
// single poisoned sigma_t or P0 scattering entry propagates NaNs (or
// negative sources) through every sweep that touches it, surfacing as
// inscrutable downstream results instead of a one-line setup error. P1
// first-moment data is legitimately signed, so only NaN is rejected
// there.
func validateLibrary(lib *xs.Library) error {
	for m := range lib.Total {
		for g, v := range lib.Total[m] {
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("core: cross-section library: total sigma of material %d group %d is %v (NaN/negative rejected)", m, g, v)
			}
		}
	}
	for m := range lib.Scatter {
		for gp := range lib.Scatter[m] {
			for g, v := range lib.Scatter[m][gp] {
				if math.IsNaN(v) || v < 0 {
					return fmt.Errorf("core: cross-section library: scatter sigma of material %d, group %d->%d is %v (NaN/negative rejected)", m, gp, g, v)
				}
			}
		}
	}
	for m := range lib.ScatterP1 {
		for gp := range lib.ScatterP1[m] {
			for g, v := range lib.ScatterP1[m][gp] {
				if math.IsNaN(v) {
					return fmt.Errorf("core: cross-section library: P1 scatter sigma of material %d, group %d->%d is NaN", m, gp, g)
				}
			}
		}
	}
	return nil
}

// validateExternal rejects configurations an External sweep cannot
// honour; the engine-only rule of armed sweeps is ArmSweep's.
func (c Config) validateExternal() error {
	if c.Reflect != [3]bool{} {
		return fmt.Errorf("core: External faces and Reflect are mutually exclusive: partitioned runs do not reflect")
	}
	if c.Time != nil {
		return fmt.Errorf("core: External faces do not support time-dependent mode")
	}
	seen := make(map[int]bool, len(c.External))
	nE := c.Mesh.NumElems()
	for i, ef := range c.External {
		if ef.Elem < 0 || ef.Elem >= nE || ef.Face < 0 || ef.Face >= fem.NumFaces {
			return fmt.Errorf("core: External[%d] references invalid face (elem %d, face %d)", i, ef.Elem, ef.Face)
		}
		if c.Mesh.Elems[ef.Elem].Faces[ef.Face].Neighbor >= 0 {
			return fmt.Errorf("core: External[%d] (elem %d, face %d) is an interior face", i, ef.Elem, ef.Face)
		}
		key := ef.Elem*fem.NumFaces + ef.Face
		if seen[key] {
			return fmt.Errorf("core: External lists (elem %d, face %d) twice", ef.Elem, ef.Face)
		}
		seen[key] = true
	}
	return nil
}
