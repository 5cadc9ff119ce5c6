// Package la implements the small dense linear algebra at the heart of
// the UnSNAP sweep: every angle/element/group triple requires the solution
// of an n x n system A psi = b where n = (p+1)^3 grows from 8 (linear
// elements) to 216 (order-5 elements).
//
// # One elimination core
//
// All Gaussian elimination of one system in the package is one loop,
// eliminate: LU with partial pivoting, multipliers stored in place below
// the diagonal, whole rows exchanged so a swap carries them, optionally
// recording the pivots and optionally carrying one right-hand side (its
// one caller, SolveGE's) through the same row operations. The exported solvers are thin wrappers over
// it:
//
//   - SolveGE: the paper's hand-written Gaussian elimination (UnSNAP's
//     built-in solver) — eliminate with the right-hand side carried
//     along, then back substitution. "GE" in the Table II reproduction
//     means this: unblocked, right-looking, in-order arithmetic, now
//     register-blocked the way a compiler's unroll-and-jam would leave
//     the paper's simd loop.
//   - Factor + SolveFactored: eliminate with the pivot record, then the
//     permuted triangular solves. SolveFactored is the row-major oracle
//     each lane of TriSolveLanes is held to.
//   - FactorLanes + TriSolveLanes: the sweep's one solve path. Up to four
//     systems factored at once, one per vector lane, then their
//     triangular solves at once on right-hand sides the caller gathers
//     through each lane's composed row permutation. At w = 1 the layout
//     is row-major and FactorLanes is eliminate itself, its pivot record
//     composed in place; at w = 2 and 4 it is a second loop,
//     eliminate's operation sequence run across systems instead of
//     within one. Either way each lane is held to Factor and
//     SolveFactored bit for bit (TestFactorLanesBitwise,
//     FuzzFactorLanesBitwise, TestTriSolveLanesBitwise,
//     FuzzTriSolveLanesBitwise). AddScaledToLanes forms the operands,
//     each lane from its own base matrix (the lanes of an angle set
//     carry different ordinates' matrices; lanes may share a base).
//   - FactorBlocked, SolveDGESV: the LAPACK-style stand-in for Intel
//     MKL's dgesv (closed source): blocked right-looking LU (getrf) whose
//     panels go through eliminate, whose block-row solve is the panel's
//     elimination carried on to the columns right of it and whose rank-nb
//     trailing update takes a few target rows at a time and runs the
//     panel's pivot pairs over them — both through the pair update
//     eliminate itself uses (pairUpdate) — followed by getrs. The
//     blocking changes which rows are in cache when, not what is computed:
//     each element has the same terms subtracted in the same order, so
//     its factors and pivots are bitwise Factor's. What Table II compares
//     is therefore memory behaviour alone — the order in which a library
//     solve walks a matrix that has outgrown L1.
//
// eliminate takes its pivot steps two at a time. After step k it brings
// only column k+1 up to date — all the next pivot search needs — and once
// step k+1 has chosen its pivot, both row operations reach the trailing
// matrix in a single pass over four target rows that share each load of
// the two pivot rows (pairUpdate). Deferring is bitwise-neutral because
// between steps k and k+1 elimination reads only column k+1 (the pivot
// search) and row k+1 (the source of the next row operation), and both
// are brought up to date first: every other a[i][j] still has step k's
// term subtracted and rounded, then step k+1's, with the operands the
// textbook loop would use, and a zero multiplier still skips its row
// (x - 0*y is not x when x is -0 or y is not finite). The textbook loops
// live on in la_test.go as the oracle the core is held to bit for bit.
//
// # The element-integral product
//
// MulTN writes C = A^T B for row-major A (k x m) and B (k x n): each
// entry starts at +0 and adds the rounded product a[q][t]*b[q][j] for
// q = 0, 1, ..., k-1 in that order — exactly the scalar accumulation
// "c[t][j] += a[q][t]*b[q][j]" over q. fem integrates every element
// matrix through it (q a quadrature point, B a basis table), so this
// summation order is part of every flux bit the solver produces. Two
// oracles hold it: the textbook triple loop in la_test.go
// (TestMulTNBitwise, both kernel paths, shapes ragged against the
// blocks) and fem's verbatim copy of the quadrature loop it replaced
// (referenceMatrices, TestComputeMatricesBitwise and
// FuzzComputeMatricesBitwise).
//
// # Vector kernels
//
// Nine loops have an AVX2 form in kernels_amd64.s, called from inside
// the Go functions that own them, so no caller and no signature knows:
// pairUpdate's four-row trailing update t = (t - l0*u) - l1*v
// (update2AVX2: the eight multipliers broadcast, the pivot rows loaded
// once per four columns, four target rows updated per load), the
// element-wise passes AddScaled, AddScaledTo and Fuse3, and MulTN
// (mulTNAVX2: four rows by eight columns of C in eight accumulators, per
// q two loads of B and four broadcasts of A; then four columns; the
// n mod 4 columns left over by one more four-column pass ending at the
// last column, and the m mod 4 rows by one more four-row block ending at
// the last row — both rewrite entries already written with the bits
// they hold, so no access leaves the operands and no tail is scalar),
// TriSolveLanes (triSolveLanesAVX2: the triangular solves of four
// systems on Y registers, or two on X registers), FactorLanes
// (factorLanesAVX2, the same registers), AddScaledToLanes
// (addScaledToLanesAVX2: four entries of every lane's base per pass,
// transposed into the interleaved layout), FaceApplyLanes
// (faceApplyLanesAVX2) and FaceApplyLanesPerLane
// (faceApplyLanesPerLaneAVX2). In each but the last five, a lane is one
// matrix entry and performs exactly
// the IEEE-754 operations the Go loop performs on that entry — VMULPD,
// then VSUBPD or VADDPD, operands in the same order, each result rounded
// to float64 before the next uses it — under the same (default,
// untouched) MXCSR, so the vector path is bitwise the scalar one. A fused multiply-add is not: VFMADD
// rounds t - l*u once where the loop rounds the product and then the
// difference, and would move the last bit of most entries (scripts/ci.sh
// greps the assembly for FMA mnemonics). AVX-512 would be the same
// argument over eight lanes; on a Xeon reporting AVX-512 F/DQ/BW/VL a
// ZMM rank-2 lane update measured about 1.3x the YMM loop on the n = 64
// panel, short of what would justify a second kernel family.
//
// TriSolveLanes vectorises across systems instead of within one. Its
// operands are w factors stored lane-interleaved, entry (i, j) of lane l
// at (i*n+j)*w + l, and w right-hand sides already permuted, x[i*w + l],
// so one vector load brings the same entry of every system. A lane is one
// system: row i of the forward pass subtracts VMULPD(l[i][j], x[j]) with
// VSUBPD for j = 0, 1, ..., i-1, row i of the back pass does the same for
// j = i+1, ..., n-1 and then VDIVPD by u[i][i] — SolveFactored's loops,
// term for term, in the same order, each product and difference rounded on
// its own. The lanes never meet, so each is bitwise SolveFactored on its
// own system (TestTriSolveLanesBitwise, FuzzTriSolveLanesBitwise). What
// it buys is latency, not bandwidth: at the sizes the sweep solves the
// factors sit in L1 and one system is a chain of dependent subtracts and
// divides; four chains share each instruction. The row interchanges stay
// outside: the caller gathers each right-hand side through the
// composition of its pivots, which moves values without arithmetic. The
// rows of x may be ldx >= w apart, so the w lanes can be a column stripe
// of a wider row-major block — the sweep's psi block of one element,
// node-major with every group of the element in a row — solved in place
// there.
//
// FaceApplyLanes is a face's surface term on w right-hand sides stored
// the same way, node-major with the w lanes of a node contiguous: per
// block row r and lane l, acc = +0, then acc = acc + fb[r][k]*u[k][l]
// for ascending k (VMULPD, VADDPD), then b[rows[r]][l] -= acc (VSUBPD) —
// the scalar row sum of each lane's right-hand side, term for term. Four
// lanes go to a Y register, then two to an X register, then one (the
// scalar forms); within a chunk four block rows run per pass in four
// accumulators sharing each load of u, which is what takes the pass off
// one add latency per term (TestFaceApplyLanesBitwise,
// FuzzFaceApplyLanesBitwise: widths 1 to 16, every chunk tail, the
// specials). FaceApplyLanesPerLane is the same pass with a block per lane,
// lane-interleaved like TriSolveLanes' factors (entry (r, k) of lane l at
// (r*nf+k)*w + l), for w = 2 or 4 lanes that belong to different
// ordinates: each block load is one vector of every lane's entry, each
// lane's sum the scalar row sum of its own block
// (TestFaceApplyLanesPerLaneBitwise, FuzzFaceApplyLanesPerLaneBitwise).
//
// FactorLanes does the same for the factorisation, in the same layout:
// one vector holds entry (i, j) of every system, so the parts of
// elimination that are scalar within one system — the pivot search down
// a column, the multiplier pass, the zero-multiplier tests — become
// vector operations across systems. Every lane runs eliminate's
// sequence: the search keeps the first strict maximum of |a[i][k]|
// (VCMPPD greater-than-ordered is false and VMAXPD keeps the incumbent
// when either operand is a NaN, so a NaN never displaces it), the exchange swaps whole rows, the
// multiplier is a[i][k]*(1/a[k][k]) (one VDIVPD per step for all lanes)
// and a[i][j] -= l*a[k][j] is VMULPD then VSUBPD, with VBLENDVPD keeping
// the old entry in the lanes whose l is zero, as the scalar loop skips
// the row. Steps go in pairs as in eliminate: the step opening a pair
// stores its multipliers and updates column k+1 alone, the step closing
// it applies both row operations in one pass over each row below, and
// each pass searches the first column it leaves final for the next
// pivot as it goes, so no pass over a column but column 0's is spent on
// the search alone. Lanes may pivot on different rows: the exchange is a blend of
// the two rows under the mask of the lanes that chose that row, one pass
// per distinct pivot row, and each lane's composed permutation is
// swapped as its rows are. The whole factorisation is one call — per
// step calls from Go cost more than an n = 8 factorisation — and a row
// pass whose multipliers hold no zero skips the blends. Pairing is what
// pays at n = 64, where four systems (128 KiB) outgrow L1: an unpaired
// lane kernel streams the trailing block from L2 twice as often and
// measured slower there than four scalar factorisations.
//
// What is not vectorised, and why: one triangular solve and MatVec are
// ordered reductions (lanes within one system would reassociate the
// sum). Within one system, eliminate's pivot search and multiplier pass
// walk a column of a row-major matrix, one cache line per entry, and the
// right-hand side it carries is one entry per row per step; across
// systems FactorLanes vectorises all three, so only a width-1 panel — a
// lone system, or one factor serving several right-hand sides — still
// pays them scalar (its trailing update is eliminate's AVX2 pair
// update).
//
// Dispatch is one unexported variable, useAVX2, set at package
// initialisation from CPUID (leaf 1 OSXSAVE and AVX, XCR0 bits 1-2 via
// XGETBV, leaf 7 AVX2) and the constant false where kernels_amd64.s is
// not built; Kernels reports it. It is not a knob — only this package's
// tests set it, to run the bitwise suite over both paths and hold them
// to each other. The Go loops stay as the path on other CPUs and as the
// handler of what the kernels decline: column ranges and slices below
// the measured minimums (minUpdateWidth, minVectorLen), the len mod 4
// tail of an element-wise pass, the rows a block of four leaves over, and
// every row from the first exact-zero multiplier of a pair on —
// pairUpdate scans the two multiplier columns first, hands the zero-free
// leading rows to the kernel (which subtracts unconditionally) and the
// rest to the per-block loop, which knows how to skip. MulTN declines
// only shapes below one block (m or n under 4) and k = 0; FactorLanes,
// AddScaledToLanes, FaceApplyLanes and FaceApplyLanesPerLane only width
// 1 (AddScaledToLanes also runs its len mod 4 tail entries in Go).
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
//   - GE == Factor + SolveFactored, by construction rather than by two
//     loops kept in sync: the matrix goes through the same code either
//     way, and the forward solve subtracts the stored multipliers from
//     each right-hand side in the order elimination does. (One corner:
//     elimination skips a zero multiplier where the triangular solve
//     subtracts 0*b, so a -0.0 in the right-hand side can come back +0.0
//     from the factored path. Equal as numbers, not as bits. The sweep's
//     batched kernel runs the factored path on every panel, cached or
//     not, against the scalar kernel's SolveGE; the flux pins pass on
//     both.)
//   - DGESV == GE: FactorBlocked is bitwise Factor at every size and
//     block width (TestFactorBlockedMatchesUnblocked), so SolveDGESV
//     returns SolveGE's bits, the same -0.0 corner aside. The choice is
//     still an Options knob because the paper's Table II compares the
//     two; it cannot change a converged flux.
//   - Lanes == scalar: each lane of TriSolveLanes is bitwise a
//     SolveFactored of that lane's system, given its right-hand side
//     permuted by the composed pivots; each lane of FactorLanes is
//     bitwise Factor's factor of that lane's matrix, its permutation
//     Factor's pivots composed, and FactorLanes fails exactly when some
//     lane's Factor does; each lane of AddScaledToLanes is bitwise
//     AddScaledTo with that lane's base and weight; each lane of
//     FaceApplyLanes is bitwise the scalar row sums of its own
//     right-hand side, and each lane of FaceApplyLanesPerLane those of
//     its own block and right-hand side.
//   - Vector path == scalar path, for every routine above (the bitwise
//     suite runs each case on both and compares them).
package la
