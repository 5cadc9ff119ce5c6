// Package core implements the UnSNAP solver: the discontinuous Galerkin
// discrete-ordinates transport sweep on unstructured hexahedral meshes,
// with SNAP's iteration structure (Jacobi outers over the group-to-group
// scattering source, source-iteration inners within each group) layered on
// top. The per-ordinate wavefront schedules come from internal/sweep, the
// per-element basis-pair integrals from internal/fem, and the small dense
// solves from internal/la.
//
// The package exposes the paper's experimental knobs directly: the six
// on-node concurrency schemes of Figures 3/4 (which loops are threaded and
// the matching array layouts), the choice of local solver (hand-written
// Gaussian elimination vs. the blocked-LU dgesv stand-in) of Table II for
// the scalar kernel and the bucket schemes, and the pre-assembled-matrix
// mode discussed as future work in section IV-B1.
//
// # One resident local operator
//
// The paper's question — which part of the local operator A(a,e,g) is
// worth keeping and which is cheaper to rebuild — has one answer here:
// the factor store (faccache.go), and nothing else. It keeps LU factors
// and, beside them, the task's fused inflow face blocks
// om·Fx + om·Fy + om·Fz; an uncached task fuses its
// face blocks into worker scratch and assembles its base matrix, and the
// build artifact carries no per-ordinate matrix (its element matrices
// are one shared set per geometry class). The store has two fill
// policies over one layout and one fill routine: lazy (the engine's
// batched kernel; keyed on geometry class, so repeated geometries share
// factors; all or nothing under a 128 MiB prediction) and eager
// (Config.PreAssembled; every element its own class, filled in parallel
// at New, refused above 16 GiB). The engine runs the same cached batched
// body under both; the bucket schemes read the eager store one group at
// a time. Every panel of every task, cached or not, is solved one way:
// la.FactorLanes, int32 gather offsets, la.TriSolveLanes — in place in
// psi for a single ordinate, in worker scratch for an angle set.
//
// # Angle sets
//
// An engine task is every (ordinate, group) lane of one (angle set,
// element) pair. A set is consecutive ordinates of one octant with the
// same sweep topology (the same build.Artifact.Topos pointer), at most
// four lanes (s*nG <= 4), cut greedily into sets of 4, then 2, then 1:
// one group gives sets of up to four ordinates, two groups up to two,
// more groups one ordinate per task (buildAngleSets). It is a pure
// function of the artifact and the configuration, with no knob of its
// own. Every set is one ordinate where topologies differ (a cyclic
// twisted mesh), under PreAssembled and outside the engine, and under
// Config.Reflect unless the set's mirror ordinates form a set. The set's
// ordinates share one task graph, so the engine's counters, seeds,
// External schedule and mirror edges are per set task; a streamed
// ResolveExternal for (a, e) counts down the task of a's set, and a
// finished set task publishes every one of its ordinates' outflow. The
// scalar kernel runs a set's ordinates one after another. psi, the flux
// reduction, the halo protocols and every reader of psi outside the task
// see ordinates, never sets.
//
// # Layouts
//
// The bucket schemes keep the paper's layouts, node fastest (LayoutEG,
// LayoutGE). The engine keeps its own, LayoutLanes: psi, M psi_prev and
// the stored source products mq, mq1 are [angle][element][node][group],
// so a task's source is one contiguous copy, an upwind node's groups are
// one contiguous run and a lane panel's solutions land as one column
// stripe of the task's psi block — the task runs on group lanes end to
// end (kernel.go); an angle set's task lays its lanes out [node][ordinate
// in set][group] in worker scratch and moves each ordinate's solutions to
// its own block. The scalar flux and the outer sources keep LayoutEG's
// order; the scalar kernel, the flux reduction, the balance and the
// accessors read psi strided, each value's operations unchanged. With one
// group every layout of the element-major family is the same. The lag
// store of a cyclic mesh keeps one slot per (ordinate, lagged face),
// face nodes in the downwind element's order and groups fastest, under
// every layout.
//
// # Determinism and parity contract
//
// Every knob trades time, never the answer. The scheme executors, the
// persistent counter-driven engine — one fused eight-octant phase per
// sweep, whatever the boundary: vacuum, reflective (each mirror read is
// one edge of the task graph) or External — and the batched task kernel
// and its in-package scalar reference (Config.Kernel) all update disjoint
// per-element angular-flux storage and reduce into the scalar flux at
// fixed points of the iteration. psi holds one iterate: every in-sweep
// read of it is ordered by the schedule (upwind neighbours, reflective
// mirrors), and a lagged coupling reads the lag store, which only the
// end of a sweep rewrites. So for a given (problem, options) the
// flux trajectory is bitwise reproducible across runs and thread counts,
// and the equivalence suites pin the executors against each other (and
// against the legacy bucket path on cyclic meshes) at 1e-12 or bitwise.
// A solver built from a cached artifact (internal/build) is
// indistinguishable from one built cold.
//
// # Worker pool and lifecycle
//
// A Solver has one team of workers (workerPool, parallel.go), the
// analogue of the persistent OpenMP team the paper's solver runs every
// parallel region on: Threads-1 goroutines parked on a condition variable
// plus the calling goroutine as worker 0. Nothing else in the package
// starts a goroutine. Every parallel loop is a round of it — fork(body)
// releases the background workers onto body(w), join runs body(0) on the
// caller and waits for them to leave, run is the two back to back:
// ComputeOuterSource, PrepareInner's source pass, each engine phase (the
// body is the engine's worker loop; the engine owns deques, counters and
// the mid-phase park/wake of workers with nothing ready, but no
// goroutines), each bucket of a bucket scheme, the ordered flux
// reduction, storePrevStep and the eager factor fill. An armed sweep is
// the same round held open: ArmSweep forks, FinishSweep joins. Rounds do
// not nest — no body may reach another fork; the lazy factor fill runs
// inside a task and is pool-free. The static loops split their range at
// w*n/Threads, which is part of the thread-count determinism pin.
//
// The workers start on the first round and hold no reference to the
// solver between rounds, so two things stop them: Close (stops and joins
// them; the solver stays usable and the next round starts them again) and
// the one runtime cleanup registered at New, which lets the workers of a
// solver dropped without Close return once it is collected. The factor
// store's slabs, a mapping outside the GC heap (faccache.go), share that
// lifecycle: Close and the cleanup release them, and the next sweep maps
// them again — empty under the lazy policy, refilled under PreAssembled
// — before any task runs, so a closed solver's next Run is bitwise the
// Run of a solver never closed. A sweep's
// first error — a task's failed solve, a stall, a cancel — collects in
// the pool and is handed over by the call that ends the sweep. A panic in
// any body on any worker, the caller's slot included, is recovered in the
// pool's one wrapper: it becomes that error, carrying the panic value and
// the stack, the engine phase in flight is abandoned so its parked peers
// leave, and the process, the pool and the solver live on (a panic in a
// loop whose caller returns no error, such as PrepareInner, surfaces from
// the sweep that follows).
//
// # One source iteration
//
// Iterate (iterate.go) is the only place that knows how a solve iterates
// and when it stops: inners within a group until the pointwise flux
// change clears Epsi (or MaxInners), Jacobi outers over the scattering
// source until the change across an outer is within ten times Epsi (or
// MaxOuters), neither exit under ForceIterations; the context check
// before every inner, the divergence monitor, and the
// Progress hook invoked synchronously after every inner — the hook's cost
// is the caller's, and it must not call back into the solver. The limits
// and Epsi are defaulted in Config.withDefaults and nowhere else. What an
// iteration does is a three-method Stepper: the Solver is its own
// (RunContext; RunTimeDependent sends every time step through it), and
// internal/comm supplies one for the lagged protocol's super-step and one
// per rank of a pipelined run, whose decisions agree through the
// max-reduction Iterate accepts. FinishInner is the tail every one of
// them shares: DSA correction, the NaN/Inf scan, the flux
// change. A cancelled solve returns a structured error within one inner,
// with the solver still safe to Close.
//
// # Where the right-hand side is formed, and who is charged for it
//
// The volumetric source of a task, M q_tot, does not depend on the
// ordinate, so PrepareInner forms it once per inner (mq; with P1
// scattering also M q1 per direction, and RunTimeDependent stores
// M psi_prev once per step) and every task, under either kernel, starts
// from a copy: no task multiplies by the mass matrix. The P1 and
// time-dependent right-hand sides are sums of stored products, by
// linearity (b = mq + 3 Omega.mq1 + vdelt mPrev). The product is a plain
// row-by-row dot product whose order is pinned: TestKernelFluxDigest
// holds an isotropic steady-state flux to a recorded sha256.
//
// With Config.Instrument the assembly timer therefore covers three
// places: the in-task assembly (base matrix, face pass, panel matrix
// formation), the per-inner source pass inside PrepareInner, and the
// per-step M psi_prev pass. Filling a factor-store entry is charged to
// the solve timer, whole (its base assembly included): it is the
// factorisation the cached sweeps stop paying, whether the first task
// to need the entry fills it or PreAssembled fills them all at New. Each is timed on the worker that ran it and
// folded into the solver totals at the end of the next sweep, so
// Result.AssembleTime / PhaseTimes — and the assemble share the paper's
// tables and the traced benchmark derive from them — still account for
// all right-hand-side formation, not only the part left inside a task.
package core
