// Package comm implements the global (cross-rank) layer of the solver:
// the mesh is split over a KBA-style 2D rank grid and each rank — a
// goroutine standing in for one of the paper's MPI processes — owns a
// core.Solver for its subdomain. Two communication protocols couple the
// ranks:
//
//   - Lagged (the paper's scheme): parallel block Jacobi driven in BSP
//     super-steps — every rank sweeps its whole subdomain using the halo
//     fluxes of the previous inner iteration, a barrier, a bulk halo
//     exchange into the rank's External inflow slots, another barrier.
//     Every rank starts sweeping immediately, in the fused eight-octant
//     phase, but the lagged coupling costs extra inner iterations as the
//     rank count grows.
//
//   - Pipelined: the sweep itself spans the ranks. Remote upwind faces
//     are latent dependencies of each rank's counter-driven task graph
//     (core.Config.External); the engine publishes boundary outflow the
//     moment the owning task completes, per-edge channels stream it to
//     the downstream rank, and the receiver resolves the waiting tasks
//     mid-sweep — so the whole partitioned mesh executes one cross-rank
//     task graph per sweep in wavefront order, with no halo barrier,
//     each rank in its one fused eight-octant phase. Cyclic
//     meshes ride the same path (AllowCycles): a single global SCC
//     condensation decides, identically to the single-domain solver,
//     which couplings are lagged to the previous iterate — intra-rank
//     ones read the rank solver's lag store (the previous sweep's values
//     on the cut faces), cross-rank ones are consumed one sweep late on
//     a dedicated channel — while everything off-cycle still streams
//     mid-sweep. Iteration counts and fluxes match the
//     single-domain solver exactly.
//
// Neither protocol has an iteration loop of its own. core.Iterate — the
// source iteration the single-domain solver runs, with its limits,
// stopping rule, context check and divergence monitor — drives both; a
// protocol supplies only what one step does. Lagged hands it one stepper
// whose inner is the super-step over all ranks and whose flux changes are
// the maxima over the ranks. Pipelined runs Iterate on every rank
// goroutine with the rank's armed sweep as the inner: a forced-iteration
// run needs no synchronisation at all, so ranks pipeline freely across
// inner (and outer) boundaries under channel backpressure, and a
// convergence-gated run passes Iterate a max-barrier over the ranks as
// its reduction — one scalar per inner, the flux-change all-reduce any
// production sweeper performs — so every rank takes the identical
// decision from the identical maximum.
//
// Lagged remains the default and the paper-faithful A/B baseline. The
// protocols build their rank solvers the same way — every cross-rank face
// declared core.Config.External from mesh.RemoteFaces — and differ only in
// when the inflow slots are written: between sweeps (lagged, a
// self-driven SweepAllAngles) or mid-sweep (pipelined, an armed sweep).
// They share the deterministic per-rank flux reduction and the balance
// accounting.
//
// # Determinism and parity contract
//
// Rank concurrency never reaches the numbers. Each rank's flux
// contributions are reduced in a fixed rank order regardless of which
// goroutine finishes first, and every cross-rank value is consumed at a
// well-defined point of the iteration (the halo exchange for lagged, the
// task-graph dependency for pipelined), so a run's results are bitwise
// reproducible across schedulers and thread counts. The pipelined
// protocol is exact, not approximate: it matches the single-domain
// solver's flux and iteration counts (pinned at 1e-12 alongside the
// cyclic-mesh equivalence suite), while the lagged protocol matches the
// paper's block Jacobi semantics — same converged answer, extra inners as
// the rank grid grows. Fault handling (internal/fault) and failure
// policies (retry, degrade-to-lagged) sit below these guarantees: a
// recovered run reports the same answer a clean run would, and a
// degraded run reports Degraded explicitly.
package comm
