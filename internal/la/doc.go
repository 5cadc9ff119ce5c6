// Package la implements the small dense linear algebra at the heart of
// the UnSNAP sweep: every angle/element/group triple requires the solution
// of an n x n system A psi = b where n = (p+1)^3 grows from 8 (linear
// elements) to 216 (order-5 elements).
//
// # One elimination core
//
// All Gaussian elimination in the package is one loop, eliminate: LU with
// partial pivoting, multipliers stored in place below the diagonal, whole
// rows exchanged so a swap carries them, optionally recording the pivots
// and optionally carrying k right-hand sides through the same row
// operations. The exported solvers are thin wrappers over it:
//
//   - SolveGE / SolveGEMulti: the paper's hand-written Gaussian
//     elimination (UnSNAP's built-in solver) — eliminate with the
//     right-hand sides carried along, then back substitution. "GE" in the
//     Table II reproduction means this: unblocked, right-looking,
//     in-order arithmetic, now register-blocked the way a compiler's
//     unroll-and-jam would leave the paper's simd loop.
//   - Factor + SolveFactored / SolveFactoredMulti: eliminate with the
//     pivot record, then permuted triangular solves per right-hand side.
//   - FactorBlocked, SolveDGESV: the LAPACK-style stand-in for Intel
//     MKL's dgesv (closed source): blocked right-looking LU (getrf) whose
//     panels go through eliminate and whose trailing update is a rank-nb
//     matrix product with its own summation order, followed by getrs.
//     The blocking gives it the cache behaviour that lets a library solve
//     overtake naive elimination once the matrix outgrows L1, which is the
//     effect Table II measures.
//
// eliminate takes its pivot steps two at a time. After step k it brings
// only column k+1 up to date — all the next pivot search needs — and once
// step k+1 has chosen its pivot, both row operations reach the trailing
// matrix in a single pass over four target rows: six loads and four
// stores per sixteen flops, where one rank-1 update at a time moves
// sixteen and eight. Deferring is bitwise-neutral because between steps k
// and k+1 elimination reads only column k+1 (the pivot search) and row
// k+1 (the source of the next row operation), and both are brought up to
// date first: every other a[i][j] still has step k's term subtracted and
// rounded, then step k+1's, with the operands the textbook loop would
// use, and a zero multiplier still skips its row (x - 0*y is not x when x
// is -0 or y is not finite). The textbook loops live on in la_test.go as
// the oracle the core is held to bit for bit.
//
// Matrices are dense row-major; all routines are allocation-free given a
// Workspace so they can run inside sweep worker pools.
//
// # Contract
//
// Every solver is sequential, allocation-free given its Workspace, and
// deterministic: the same matrix and right-hand side produce bitwise the
// same solution on every call, on every thread — nothing here reads
// shared mutable state, so a Workspace-per-worker pool is safe by
// construction. Mis-sized pivot records and right-hand sides are errors,
// not panics; a zero pivot column is ErrSingular.
//
// Bitwise identities the sweep's reproducibility pins rest on:
//
//   - Multi-RHS == scalar: each column of SolveGEMulti /
//     SolveFactoredMulti undergoes exactly the operation sequence SolveGE
//     / SolveFactored would apply to it alone.
//   - GE == Factor + SolveFactored, by construction rather than by two
//     loops kept in sync: the matrix goes through the same code either
//     way, and the forward solve subtracts the stored multipliers from
//     each right-hand side in the order elimination does. (One corner:
//     elimination skips a zero multiplier where the triangular solve
//     subtracts 0*b, so a -0.0 in the right-hand side can come back +0.0
//     from the factored path. Equal as numbers, not as bits.)
//
// GE and DGESV may differ in the last bits above n = DefaultBlockSize,
// where the blocked trailing update sums in a different order; the
// package tests pin both against known solutions and against each other
// to near machine precision, and every solver-facing layer treats the
// choice as an Options knob with identical convergence behaviour.
package la
