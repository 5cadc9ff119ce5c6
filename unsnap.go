// Package unsnap is a Go reproduction of UnSNAP, the discontinuous
// Galerkin finite element discrete ordinates transport mini-app of Deakin
// et al. (WRAp @ IEEE CLUSTER 2018). It solves the steady multigroup
// neutral-particle transport equation on unstructured hexahedral meshes by
// wavefront sweeps, assembling and solving one small dense linear system
// per angle, element and energy group.
//
// The package is the public face of the library. A minimal run:
//
//	p := unsnap.DefaultProblem()
//	s, err := unsnap.NewSolver(p, unsnap.Options{})
//	if err != nil { ... }
//	res, err := s.Run()
//	fmt.Println(res.Balance, s.FluxIntegral(0))
//
// Deeper control (concurrency schemes, data layouts, solver kinds, block
// Jacobi domain decomposition, the finite-difference SNAP baseline) is
// exposed through Options, NewDistributed and NewFD. The experiment
// harness that regenerates the paper's tables and figures lives in
// cmd/unsnap-bench.
package unsnap

import (
	"context"
	"fmt"
	"math"
	"time"

	"unsnap/internal/build"
	"unsnap/internal/comm"
	"unsnap/internal/core"
	"unsnap/internal/fault"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
	"unsnap/internal/xs"
)

// Material and source layout options (SNAP's mat_opt / src_opt).
const (
	MatHomogeneous = xs.MatOptHomogeneous
	MatCentre      = xs.MatOptCentre
	SrcEverywhere  = xs.SrcOptEverywhere
	SrcCentre      = xs.SrcOptCentre
)

// Scheme selects the sweep executor. The default Engine runs the
// persistent worker-pool engine; the remaining values are the paper's
// on-node concurrency schemes (Figures 3/4), kept as compatibility modes
// so the ablation tables still regenerate. Their mnemonic reads the loop
// nest angle/element/group from outer to inner with upper case marking
// the threaded loops; the array layout always matches the loop order.
type Scheme = core.Scheme

const (
	// Engine is the default executor: the persistent worker-pool sweep
	// engine. Long-lived workers execute counter-driven wavefronts (an
	// element fires the moment its upwind dependencies resolve — no
	// bucket barriers), every ordinate of an octant is in flight at
	// once, and the scalar flux is reduced from the angular flux once
	// per sweep in a fixed order, making results bitwise reproducible
	// across runs and thread counts.
	Engine = core.SchemeEngine
	// AEg threads the elements of each schedule bucket.
	AEg = core.SchemeAEg
	// AEG threads the collapsed element x group iteration space.
	AEG = core.SchemeAEG
	// AeG threads the group loop (element-major layout).
	AeG = core.SchemeAeG
	// AGe threads the group loop (group-major layout).
	AGe = core.SchemeAGe
	// AGE threads the collapsed group x element iteration space.
	AGE = core.SchemeAGE
	// AgE threads the elements (group-major layout).
	AgE = core.SchemeAgE
)

// ParseScheme resolves a paper-style scheme name (as Scheme.String
// prints it).
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// AllSchemes lists every scheme.
func AllSchemes() []Scheme { return core.Schemes() }

// CycleOrder selects the within-SCC ordering strategy of the cycle
// condensation that AllowCycles runs (which intra-SCC dependency edges
// are demoted to lagged previous-iterate couplings). Both strategies are
// pure functions of SCC membership and element ids — the cross-rank
// determinism requirement: a partitioned pipelined run condenses the
// global mesh once and distributes the decisions by global element id, so
// every rank must (and, with Options threading one value everywhere,
// does) apply the identical rule the single-domain solver would. String
// gives the spelling the -cycle-order flags accept.
type CycleOrder = sweep.CycleOrder

const (
	// OrderElementIndex (the default) lags the intra-SCC edges whose
	// upwind element index exceeds the downwind one — the simplest
	// deterministic rule, blind to the cycle structure.
	OrderElementIndex = sweep.OrderElementIndex
	// OrderFeedbackArc orders each SCC by a greedy feedback-arc-set
	// heuristic (Eades/Lin/Smyth sink/source peeling), lagging only the
	// edges that point backwards in the peeled sequence. It never lags
	// more couplings than OrderElementIndex and substantially fewer on
	// real twisted meshes (162 vs 960 on the 6^3 oscillating-twist bench
	// mesh), which both shrinks the per-sweep lagged reads and speeds
	// the fixed-point convergence of strongly cyclic problems.
	OrderFeedbackArc = sweep.OrderFeedbackArc
)

// ParseCycleOrder resolves a strategy name as produced by String
// ("element-index" or "feedback-arc").
func ParseCycleOrder(name string) (CycleOrder, error) { return sweep.ParseCycleOrder(name) }

// AllCycleOrders lists every within-SCC ordering strategy.
func AllCycleOrders() []CycleOrder { return sweep.CycleOrders() }

// AccelMode selects the between-inner acceleration of the source
// iteration; see Options.Accelerate. String gives the spelling the
// -accelerate flags accept.
type AccelMode = core.AccelMode

const (
	// AccelNone runs plain source iteration (the paper's scheme).
	// Unaccelerated runs are bitwise identical to solvers built before
	// acceleration existed.
	AccelNone = core.AccelNone
	// AccelDSA applies a synthetic diffusion correction between inner
	// iterations: the sweep's cell-averaged flux change drives one SPD
	// cell-centred diffusion solve per group (preconditioned conjugate
	// gradients on a TPFA operator assembled from the build artifact's
	// geometric data), whose solution is added to the scalar flux. The
	// correction vanishes at the fixed point, so the converged flux is
	// the unaccelerated answer — reached in fewer inner iterations on
	// scattering-dominated problems. Steady-state, isotropic scattering
	// and vacuum boundaries only.
	AccelDSA = core.AccelDSA
)

// CommProtocol selects how NewDistributed couples its ranks; see the
// internal/comm package comment for the full protocol descriptions.
type CommProtocol = comm.Protocol

const (
	// CommLagged (the default) is the paper's parallel block Jacobi: BSP
	// super-steps with halo fluxes lagged by one inner iteration. Every
	// rank sweeps concurrently from the start, paying for that concurrency
	// with extra inner iterations as the rank count grows.
	CommLagged = comm.Lagged
	// CommPipelined streams angular flux across ranks mid-sweep: remote
	// upwind faces are latent dependencies of each rank's task graph,
	// resolved in wavefront order as upstream ranks publish them. No
	// per-inner halo barrier — iteration counts and fluxes match the
	// single-domain solver exactly, and vacuum problems keep the fused
	// eight-octant phase across ranks. Cyclic meshes are supported with
	// AllowCycles: one global SCC condensation (shared with the
	// single-domain solver) decides which couplings lag to the previous
	// iterate, and everything else still streams mid-sweep. Requires an
	// engine-backed Scheme.
	CommPipelined = comm.Pipelined
)

// SolverKind selects the local dense solver (paper Table II).
type SolverKind = core.SolverKind

const (
	// GE is the hand-written Gaussian elimination.
	GE = core.SolverGE
	// DGESV is the blocked-LU LAPACK-style solver standing in for MKL.
	DGESV = core.SolverDGESV
)

// Problem describes the physical and discretisation setup: the SNAP-style
// structured box stored as an unstructured twisted mesh, the element
// order, the angular quadrature size and the multigroup data options.
// The JSON field names are the wire format of Spec (the solve service's
// job submission payload); zero-valued fields are omitted.
type Problem struct {
	NX int `json:"nx"`
	NY int `json:"ny"`
	NZ int `json:"nz"`

	LX float64 `json:"lx"`
	LY float64 `json:"ly"`
	LZ float64 `json:"lz"`

	// Twist is the maximum rotation in radians of the top z-layer about
	// the domain axis (the paper uses up to 0.001).
	Twist float64 `json:"twist,omitempty"`
	// TwistPeriods switches the twist profile to an oscillation,
	// theta(z) = Twist*sin(2 pi TwistPeriods z/LZ), whose alternating
	// inter-layer shear produces genuinely cyclic upwind dependency
	// graphs at modest distortion (e.g. 0.35 rad over 2 periods on a 6^3
	// grid). Cyclic problems require Options.AllowCycles. Zero keeps the
	// paper's monotone ramp.
	TwistPeriods float64 `json:"twist_periods,omitempty"`

	MatOpt int `json:"mat_opt,omitempty"`
	SrcOpt int `json:"src_opt,omitempty"`

	Order           int `json:"order"` // finite element order >= 1
	AnglesPerOctant int `json:"angles_per_octant"`
	Groups          int `json:"groups"`

	// PGCPolar/PGCAzi, when both positive, replace the SNAP proxy
	// quadrature with the product Gauss-Chebyshev set of
	// PGCPolar x PGCAzi ordinates per octant (AnglesPerOctant is then
	// ignored). The product set integrates low-order angular moments
	// exactly, which matters for solution-quality studies; the proxy set
	// matches SNAP's performance-representative data.
	PGCPolar int `json:"pgc_polar,omitempty"`
	PGCAzi   int `json:"pgc_azi,omitempty"`

	// ScatOrder selects the scattering anisotropy: 0 for isotropic (the
	// paper's setting) or 1 for linearly anisotropic P1 scattering with
	// SNAP-style synthetic first-moment data.
	ScatOrder int `json:"scat_order,omitempty"`

	// ScatRatio, when nonzero, pins every group's scattering ratio
	// sigs/sigt to this value (0 < ScatRatio < 1) instead of the default
	// library's 0.5/0.6, preserving each material's total cross section.
	// High ratios make the problem scattering-dominated — the regime
	// where source iteration slows down and Options.Accelerate pays off.
	// Isotropic only (incompatible with ScatOrder >= 1).
	ScatRatio float64 `json:"scat_ratio,omitempty"`
}

// DefaultProblem returns the paper's Figure 3 configuration scaled down to
// run quickly on a laptop (override fields for the full size).
func DefaultProblem() Problem {
	return Problem{
		NX: 8, NY: 8, NZ: 8,
		LX: 1, LY: 1, LZ: 1,
		Twist:  0.001,
		MatOpt: MatCentre, SrcOpt: SrcEverywhere,
		Order:           1,
		AnglesPerOctant: 4,
		Groups:          4,
	}
}

// PaperFig3Problem returns the full-size Figure 3/4 problem (16^3
// elements, 36 angles per octant, 64 groups); pass order 1 for Figure 3
// and order 3 for Figure 4.
func PaperFig3Problem(order int) Problem {
	return Problem{
		NX: 16, NY: 16, NZ: 16,
		LX: 1, LY: 1, LZ: 1,
		Twist:  0.001,
		MatOpt: MatCentre, SrcOpt: SrcEverywhere,
		Order:           order,
		AnglesPerOctant: 36,
		Groups:          64,
	}
}

// PaperTable2Problem returns the full-size Table II problem (32^3
// elements, 10 angles per octant, 16 groups) at the given element order.
func PaperTable2Problem(order int) Problem {
	return Problem{
		NX: 32, NY: 32, NZ: 32,
		LX: 1, LY: 1, LZ: 1,
		Twist:  0.001,
		MatOpt: MatCentre, SrcOpt: SrcEverywhere,
		Order:           order,
		AnglesPerOctant: 10,
		Groups:          16,
	}
}

// Options are the solver-side knobs. Their JSON tags are the wire format
// of Spec; the fields tagged json:"-" are process-local and never travel
// (see Spec).
type Options struct {
	Scheme  Scheme     `json:"scheme,omitempty"`
	Threads int        `json:"threads,omitempty"`
	Solver  SolverKind `json:"solver,omitempty"`

	// Protocol selects the cross-rank communication scheme of
	// NewDistributed (ignored by the single-domain solver): CommLagged is
	// the paper's BSP block Jacobi, CommPipelined streams angular flux
	// across ranks mid-sweep.
	Protocol CommProtocol `json:"-"`

	// Accelerate selects the between-inner acceleration: AccelNone
	// (default) or AccelDSA, the synthetic diffusion correction. DSA is
	// steady-state, isotropic, vacuum-boundary only — NewSolver and
	// NewDistributed reject it combined with TimeSteps, ScatOrder >= 1 or
	// Reflect. Distributed drivers apply the correction rank-locally on
	// both protocols.
	Accelerate AccelMode `json:"accelerate,omitempty"`

	Epsi      float64 `json:"epsi,omitempty"`
	MaxInners int     `json:"max_inners,omitempty"`
	MaxOuters int     `json:"max_outers,omitempty"`
	// ForceIterations runs exactly MaxOuters x MaxInners sweeps with no
	// convergence exits (the paper's timing methodology).
	ForceIterations bool `json:"force_iterations,omitempty"`

	// AllowCycles enables cycle-aware sweep topologies for meshes whose
	// upwind dependency graphs contain cycles (strongly twisted meshes;
	// see Problem.TwistPeriods). Each ordinate's graph is condensed into
	// its strongly connected components once, up front, and the
	// cycle-closing couplings are demoted to lagged reads of the previous
	// iteration's angular flux — a fixed-point iteration that converges
	// with the source iteration. Lagged couplings cost no scheduling:
	// cyclic problems keep the counter-driven engine, its fused
	// eight-octant phase, bitwise-reproducible results, and (via
	// CommPipelined) mid-sweep cross-rank streaming.
	// Without it a cyclic mesh fails at solver construction.
	AllowCycles bool `json:"allow_cycles,omitempty"`
	// CycleOrder picks which intra-SCC couplings AllowCycles lags (the
	// within-SCC cut rule): OrderElementIndex (default) or the smaller
	// OrderFeedbackArc set. One Options value configures the strategy for
	// every layer that decides cycles — the single-domain condensation,
	// the legacy bucket path, and the distributed drivers (the pipelined
	// protocol's global condensation and the decisions it distributes to
	// the ranks) — so no two components can disagree on the lag set.
	CycleOrder   CycleOrder `json:"cycle_order,omitempty"`
	PreAssembled bool       `json:"-"`
	Instrument   bool       `json:"-"`

	// Reflect enables specular reflective boundary conditions on the
	// domain faces normal to each dimension (SNAP's reflective BC);
	// unset dimensions keep the vacuum condition. Only supported by the
	// single-domain solver.
	Reflect [3]bool `json:"reflect,omitzero"`

	// TimeSteps > 0 enables SNAP's time-dependent mode: backward-Euler
	// steps of length TimeDt from the zero initial condition, each
	// converged like a steady solve. Group speeds default to
	// SNAP-style synthetic values (fastest at the highest energy).
	TimeSteps int     `json:"time_steps,omitempty"`
	TimeDt    float64 `json:"time_dt,omitempty"`

	// Deadline bounds each Run's wall-clock time, and each
	// RunTimeDependent's across all its steps. When it expires the run
	// unwinds cleanly — no hung sweep, no leaked goroutines — and returns
	// a structured error: a *SweepError naming the stuck rank, peer edge,
	// ordinate and remaining task count for a distributed sweep, or a
	// context deadline error for the single-domain iteration (checked
	// between inners). Zero means no deadline; RunContext composes an
	// external context with it. On the wire it is deadline_seconds, a
	// float number of seconds (Options.MarshalJSON).
	Deadline time.Duration `json:"deadline_seconds,omitempty"`

	// FailurePolicy decides what a distributed pipelined driver does when
	// a sweep fails or times out: fail fast (default), retry with bounded
	// backoff, or degrade to the lagged BSP protocol for the remainder of
	// the driver's life. Ignored by the single-domain solver and the
	// lagged protocol (which have no retryable failure domain).
	FailurePolicy FailurePolicy `json:"-"`

	// HealthChecks is a no-op kept for the wire key health_checks: every
	// solve scans the scalar flux for NaN/Inf after every inner iteration
	// and monitors the convergence history for divergence, surfacing
	// problems as a typed *HealthError instead of silently iterating on
	// poisoned data.
	HealthChecks bool `json:"health_checks,omitempty"`

	// Fault installs a deterministic fault-injection schedule on the
	// distributed pipelined transport (chaos testing; see FaultSchedule).
	// Only valid with NewDistributed and CommPipelined.
	Fault *FaultSchedule `json:"-"`

	// Artifact injects a pre-built topology artifact (from Build) so the
	// solver skips mesh matching, face classification and cycle
	// condensation entirely. The artifact must be compatible with the
	// problem — same mesh content, element order, quadrature and cycle
	// settings — or NewSolver fails. Only supported by the single-domain
	// solver; distributed drivers share builds through Cache instead.
	Artifact *Artifact `json:"-"`
	// Cache, when set, is consulted for the problem's build artifact
	// before building one (and populated on a miss). Solvers for the same
	// mesh/order/quadrature share one artifact; a distributed driver's
	// ranks likewise share one entry per distinct rank topology plus the
	// global cycle lag sets. Ignored when Artifact is set.
	Cache *ArtifactCache `json:"-"`

	// CacheTenant attributes this solver's Cache traffic to a named
	// tenant, and CacheTenantBytes bounds the bytes resident on that
	// tenant's behalf: going over budget evicts the tenant's own
	// least-recently-used entries, never another tenant's — the isolation
	// mechanism behind the solve service's per-tenant cache budgets
	// (cache.TenantStatsSnapshot reports per-tenant usage). Zero values
	// mean unattributed and unbounded; both are meaningless without
	// Cache.
	CacheTenant      string `json:"-"`
	CacheTenantBytes int64  `json:"-"`

	// Progress, when non-nil, is called after every completed inner
	// iteration with the iteration indices and the flux change — the hook
	// the solve service's per-job event streams are fed from. It runs
	// synchronously on the iteration goroutine, so implementations must
	// hand the event off and return quickly. A NewDistributed driver
	// reports the run's one iteration: the lagged protocol once per
	// super-step, the pipelined protocol from rank 0's iteration (whose
	// flux change is the all-rank maximum, except under ForceIterations,
	// where no reduction runs and it is rank 0's own).
	Progress func(Progress) `json:"-"`
}

// Progress reports one completed inner iteration to Options.Progress;
// see core.Progress for field semantics.
type Progress = core.Progress

// Build artifacts, re-exported so callers manage the problem-build /
// solve split without importing internal packages.
type (
	// Artifact is an immutable bundle of everything derivable from a
	// problem's topology — reference element, face matching, per-element
	// matrices, per-ordinate sweep schedules and task graphs — keyed by a
	// canonical content fingerprint. Safe to share across solvers and
	// goroutines; produced by Build or an ArtifactCache.
	Artifact = build.Artifact
	// ArtifactCache is a size-bounded, LRU-by-bytes cache of build
	// artifacts; see NewCache and Options.Cache.
	ArtifactCache = build.Cache
	// CacheStats is an ArtifactCache counter snapshot.
	CacheStats = build.CacheStats
)

// NewCache returns an artifact cache evicting least-recently-used
// entries once the total exceeds limitBytes (<= 0 means unbounded).
func NewCache(limitBytes int64) *ArtifactCache { return build.NewCache(limitBytes) }

// Build constructs the problem's topology artifact without building a
// solver: the mesh, its face matching, the per-element DG matrices and
// the per-ordinate sweep schedules (including cycle condensation under
// Options.AllowCycles). The result can be injected into any number of
// solvers via Options.Artifact, or shared implicitly via Options.Cache
// (which Build itself consults when set). Solve-time knobs (Scheme,
// Threads, Epsi, ...) do not affect the artifact.
func Build(p Problem, o Options) (*Artifact, error) {
	if err := validateOptions(o, false); err != nil {
		return nil, err
	}
	m, q, lib, err := buildParts(p)
	if err != nil {
		return nil, err
	}
	return core.BuildArtifact(coreConfig(p, o, m, q, lib))
}

// Failure-domain types, re-exported so callers configure fault injection
// and failure policies without importing internal packages.
type (
	// FaultSchedule is a seeded, deterministic fault-injection schedule
	// for the pipelined transport; see Options.Fault.
	FaultSchedule = fault.Schedule
	// FaultRule is one rule of a FaultSchedule.
	FaultRule = fault.Rule
	// FaultKind names one fault mechanism of a FaultRule.
	FaultKind = fault.Kind
	// FailurePolicy configures retry/degrade behaviour; see
	// Options.FailurePolicy.
	FailurePolicy = comm.FailurePolicy
	// FailureMode is the policy's mode knob.
	FailureMode = comm.FailureMode
	// SweepError reports a failed or timed-out distributed sweep,
	// naming the stuck rank, upstream peer, ordinate and remaining
	// tasks. Unwraps to context.DeadlineExceeded on deadline expiry.
	SweepError = comm.SweepError
	// HealthError reports a NaN/Inf flux or a diverging iteration,
	// which every solve checks for after every inner.
	HealthError = core.HealthError
)

// Fault kinds (see the fault package for exact semantics).
const (
	FaultDelay   = fault.Delay
	FaultDrop    = fault.Drop
	FaultReorder = fault.Reorder
	FaultStall   = fault.Stall
	FaultCrash   = fault.Crash
)

// Failure policy modes.
const (
	// FailFast surfaces the first sweep failure to the caller (default).
	FailFast = comm.FailFast
	// FailRetry resets and retries a failed pipelined sweep up to
	// MaxRetries times with bounded backoff.
	FailRetry = comm.FailRetry
	// FailDegrade retries like FailRetry, then permanently degrades the
	// driver to the lagged BSP protocol — same converged answer, minus
	// the mid-sweep streaming — once retries are exhausted.
	FailDegrade = comm.FailDegrade
)

// validateOptions rejects option combinations before any solver is built.
// distributed distinguishes NewDistributed (which forwards the
// failure-domain knobs to the comm driver) from NewSolver.
func validateOptions(o Options, distributed bool) error {
	if math.IsNaN(o.Epsi) || math.IsInf(o.Epsi, 0) {
		return fmt.Errorf("unsnap: epsi %v invalid", o.Epsi)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("unsnap: negative deadline %v", o.Deadline)
	}
	switch o.Accelerate {
	case AccelNone:
	case AccelDSA:
		if o.TimeSteps > 0 {
			return fmt.Errorf("unsnap: AccelDSA does not support time-dependent runs")
		}
		if o.Reflect != [3]bool{} {
			return fmt.Errorf("unsnap: AccelDSA requires vacuum boundaries (no Reflect)")
		}
	default:
		return fmt.Errorf("unsnap: unknown acceleration mode %d", int(o.Accelerate))
	}
	if !distributed {
		if o.Fault != nil {
			return fmt.Errorf("unsnap: fault injection requires NewDistributed with CommPipelined")
		}
		if o.FailurePolicy != (FailurePolicy{}) {
			return fmt.Errorf("unsnap: failure policies apply only to NewDistributed drivers")
		}
	} else {
		if o.Artifact != nil {
			return fmt.Errorf("unsnap: Artifact injection is single-domain only; ranks share builds through Options.Cache")
		}
	}
	if (o.CacheTenant != "" || o.CacheTenantBytes > 0) && o.Cache == nil {
		return fmt.Errorf("unsnap: CacheTenant/CacheTenantBytes are meaningless without Options.Cache")
	}
	if o.CacheTenantBytes < 0 {
		return fmt.Errorf("unsnap: negative tenant cache budget %d", o.CacheTenantBytes)
	}
	return nil
}

// StepRecord reports one time step of a time-dependent run.
type StepRecord struct {
	Step         int
	Inners       int
	Converged    bool
	FluxIntegral []float64 // per group
}

// Balance is the global particle balance of a solution: fixed-source
// emission, absorption, net boundary leakage, and Residual =
// |Source - Absorption - Leakage| / max(Source, 1).
type Balance = core.Balance

// Result reports a run.
type Result struct {
	Outers    int
	Inners    int
	Converged bool
	FinalDF   float64
	DFHistory []float64
	Balance   Balance

	// Attempts counts the sweep attempts a distributed run took (1 when
	// the first attempt succeeded; always 1 for single-domain runs).
	Attempts int
	// Degraded reports that a distributed driver has fallen back to the
	// lagged BSP protocol under a FailDegrade policy.
	Degraded bool

	SetupSeconds    float64
	SweepSeconds    float64
	AssembleSeconds float64 // Instrument only
	SolveSeconds    float64 // Instrument only
}

// buildParts constructs the internal mesh, quadrature and library.
func buildParts(p Problem) (*mesh.Mesh, *quadrature.Set, *xs.Library, error) {
	m, err := mesh.New(mesh.Config{
		NX: p.NX, NY: p.NY, NZ: p.NZ,
		LX: p.LX, LY: p.LY, LZ: p.LZ,
		Twist: p.Twist, TwistPeriods: p.TwistPeriods,
		MatOpt: p.MatOpt, SrcOpt: p.SrcOpt,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var q *quadrature.Set
	if p.PGCPolar > 0 && p.PGCAzi > 0 {
		q, err = quadrature.NewProductGaussChebyshev(p.PGCPolar, p.PGCAzi)
	} else {
		q, err = quadrature.NewSNAP(p.AnglesPerOctant)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	var lib *xs.Library
	switch {
	case p.ScatRatio != 0 && p.ScatOrder >= 1:
		err = fmt.Errorf("unsnap: ScatRatio requires isotropic scattering (ScatOrder 0), got %d", p.ScatOrder)
	case p.ScatRatio != 0:
		lib, err = xs.NewLibraryRatio(p.Groups, p.ScatRatio)
	case p.ScatOrder >= 1:
		lib, err = xs.NewLibraryP1(p.Groups)
	default:
		lib, err = xs.NewLibrary(p.Groups)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return m, q, lib, nil
}

func coreConfig(p Problem, o Options, m *mesh.Mesh, q *quadrature.Set, lib *xs.Library) core.Config {
	cfg := core.Config{
		Mesh: m, Order: p.Order, Quad: q, Lib: lib,
		Scheme: o.Scheme, Threads: o.Threads, Solver: o.Solver,
		Epsi: o.Epsi, MaxInners: o.MaxInners, MaxOuters: o.MaxOuters,
		ForceIterations:  o.ForceIterations,
		AllowCycles:      o.AllowCycles,
		CycleOrder:       o.CycleOrder,
		PreAssembled:     o.PreAssembled,
		Instrument:       o.Instrument,
		ScatOrder:        p.ScatOrder,
		Accelerate:       o.Accelerate,
		Artifact:         o.Artifact,
		Cache:            o.Cache,
		CacheTenant:      o.CacheTenant,
		CacheTenantBytes: o.CacheTenantBytes,
		Progress:         o.Progress,
		Reflect:          o.Reflect,
	}
	if o.TimeSteps > 0 {
		cfg.Time = &core.TimeConfig{
			Steps: o.TimeSteps, Dt: o.TimeDt,
			Velocity: core.DefaultVelocities(p.Groups),
		}
	}
	return cfg
}

func fromCoreResult(r *core.Result) *Result {
	return &Result{
		Attempts: 1,
		Outers:   r.Outers, Inners: r.Inners,
		Converged: r.Converged, FinalDF: r.FinalDF,
		DFHistory:       append([]float64(nil), r.DFHistory...),
		Balance:         r.Balance,
		SetupSeconds:    r.SetupTime.Seconds(),
		SweepSeconds:    r.SweepTime.Seconds(),
		AssembleSeconds: r.AssembleTime.Seconds(),
		SolveSeconds:    r.SolveTime.Seconds(),
	}
}

// Solver is a single-domain UnSNAP solver.
type Solver struct {
	inner    *core.Solver
	prob     Problem
	deadline time.Duration
}

// NewSolver builds a single-domain solver for the problem.
func NewSolver(p Problem, o Options) (*Solver, error) {
	if err := validateOptions(o, false); err != nil {
		return nil, err
	}
	m, q, lib, err := buildParts(p)
	if err != nil {
		return nil, err
	}
	s, err := core.New(coreConfig(p, o, m, q, lib))
	if err != nil {
		return nil, err
	}
	return &Solver{inner: s, prob: p, deadline: o.Deadline}, nil
}

// Run executes the iteration and reports the result.
func (s *Solver) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the iteration under a context; cancellation (and
// Options.Deadline, composed on top) is observed between inner
// iterations, so a cancelled run returns promptly with a structured
// error instead of finishing the solve.
func (s *Solver) RunContext(ctx context.Context) (*Result, error) {
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	r, err := s.inner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return fromCoreResult(r), nil
}

// withDeadline composes Options.Deadline on top of ctx.
func (s *Solver) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.deadline > 0 {
		return context.WithTimeout(ctx, s.deadline)
	}
	return ctx, func() {}
}

// RunTimeDependent executes the configured backward-Euler time steps
// (Options.TimeSteps/TimeDt) and reports one record per step.
// Options.Deadline bounds the whole march, checked between inners like
// RunContext's.
func (s *Solver) RunTimeDependent() ([]StepRecord, error) {
	ctx, cancel := s.withDeadline(context.Background())
	defer cancel()
	rec, err := s.inner.RunTimeDependent(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]StepRecord, len(rec))
	for i, r := range rec {
		out[i] = StepRecord{
			Step: r.Step, Inners: r.Inners, Converged: r.Converged,
			FluxIntegral: append([]float64(nil), r.FluxIntegral...),
		}
	}
	return out, nil
}

// FluxIntegral returns the volume-integrated group-g scalar flux.
func (s *Solver) FluxIntegral(g int) float64 { return s.inner.FluxIntegral(g) }

// Phi returns the scalar flux at (element, group, node).
func (s *Solver) Phi(e, g, node int) float64 { return s.inner.Phi(e, g, node) }

// NumElems returns the element count.
func (s *Solver) NumElems() int { return s.inner.NumElems() }

// NumNodes returns the nodes per element.
func (s *Solver) NumNodes() int { return s.inner.NumNodes() }

// NumGroups returns the group count.
func (s *Solver) NumGroups() int { return s.inner.NumGroups() }

// ScheduleStats reports (distinct topologies, buckets, max bucket size,
// mean bucket size) of the sweep schedules.
func (s *Solver) ScheduleStats() (int, int, int, float64) {
	return s.inner.ScheduleStats()
}

// Problem returns the problem this solver was built for.
func (s *Solver) Problem() Problem { return s.prob }

// Artifact returns the solver's build artifact (shared, read-only). Two
// solvers built through one cache on the same problem return the same
// pointer.
func (s *Solver) Artifact() *Artifact { return s.inner.Artifact() }

// Internal exposes the underlying core solver for advanced callers
// (benchmark drivers that step PrepareInner/SweepAllAngles manually).
func (s *Solver) Internal() *core.Solver { return s.inner }

// Close stops the solver's background workers deterministically (they
// are otherwise reclaimed when the solver is garbage collected). The
// solver stays usable — queries keep working and a later Run restarts
// them — so Close is just the polite thing to do in processes that hold
// many solvers alive. Safe to call multiple times.
func (s *Solver) Close() { s.inner.Close() }

// Validate sanity-checks a problem without building a solver.
func (p Problem) Validate() error {
	if p.NX < 1 || p.NY < 1 || p.NZ < 1 {
		return fmt.Errorf("unsnap: grid %dx%dx%d invalid", p.NX, p.NY, p.NZ)
	}
	for _, d := range [...]struct {
		name string
		v    float64
	}{{"LX", p.LX}, {"LY", p.LY}, {"LZ", p.LZ}} {
		if math.IsNaN(d.v) || math.IsInf(d.v, 0) || d.v <= 0 {
			return fmt.Errorf("unsnap: %s = %v invalid (need a finite positive length)", d.name, d.v)
		}
	}
	if math.IsNaN(p.Twist) || math.IsInf(p.Twist, 0) {
		return fmt.Errorf("unsnap: twist %v invalid (need a finite angle)", p.Twist)
	}
	if math.IsNaN(p.TwistPeriods) || math.IsInf(p.TwistPeriods, 0) || p.TwistPeriods < 0 {
		return fmt.Errorf("unsnap: twist periods %v invalid (need a finite non-negative count)", p.TwistPeriods)
	}
	if p.Order < 1 {
		return fmt.Errorf("unsnap: order %d invalid", p.Order)
	}
	if p.AnglesPerOctant < 1 || p.Groups < 1 {
		return fmt.Errorf("unsnap: need at least one angle and one group")
	}
	if p.ScatRatio != 0 && !(p.ScatRatio > 0 && p.ScatRatio < 1) {
		return fmt.Errorf("unsnap: scattering ratio %v invalid (need 0 < ratio < 1)", p.ScatRatio)
	}
	return xs.ValidateOptions(p.MatOpt, p.SrcOpt)
}
