#!/bin/sh
# ci.sh — the repo's continuous-integration gate: formatting, vet, build
# (library, tools and examples), the bench-tool smoke pass and the
# race-enabled short test suite. Run it before every commit; the hosted
# pipeline (.github/workflows/ci.yml) runs exactly this script, so local
# and hosted CI cannot drift. Tier-1 acceptance (ROADMAP.md) is
# `go build ./... && go test ./...`, which this is a superset of modulo
# -short.
#
# Every step's exit code fails the script (set -e; the gofmt check exits
# explicitly); the workflow pins that propagation with a
# deliberate-failure check, so a silently-ignored regression cannot
# creep back in.
set -e
cd "$(dirname "$0")/.."
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
go vet ./...
go build ./...
go build ./examples/...
# The pure-Go side of internal/la's kernel split (kernels_generic.go) is
# never compiled on the amd64 boxes this runs on: cross-build it, and vet
# the package with its tests, so the stub path cannot stop compiling
# unseen. (go vet's asmdecl above checks kernels_amd64.s's frame layouts
# against the Go declarations.)
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/la
# The factor store's heap fallback (faccache_heap.go) is the build where
# there is no mmap: cross-vet it with its tests.
GOOS=darwin go vet ./internal/core
# The vector kernels are bitwise the scalar loops only while every lane
# rounds its product before the subtract: no fused multiply-add, ever.
if grep -n 'VFMADD\|VFNMADD\|VFMSUB\|VFNMSUB' internal/la/*.s; then
	echo "fused multiply-add in internal/la assembly" >&2
	exit 1
fi
# One worker pool per solver: internal/core starts goroutines in exactly
# one place (the pool's fork) and registers exactly one GC-path stop, so a
# second pool cannot come back unseen.
CORE_SRC=$(ls internal/core/*.go | grep -v _test.go)
if [ "$(cat $CORE_SRC | grep -c '^[[:space:]]*go [a-zA-Z_(]')" != 1 ] ||
	[ "$(cat $CORE_SRC | grep -c 'runtime\.AddCleanup(')" != 1 ]; then
	echo "internal/core must hold one go statement and one runtime.AddCleanup" >&2
	exit 1
fi
# One solve path: every panel of the batched task and every entry of the
# factor store is factored by la.FactorLanes and solved by
# la.TriSolveLanes. No non-test file in internal/core calls a row-major
# factorisation, and internal/la defines no multi-RHS solve, so a second
# path cannot come back unseen (the scalar kernel and the bucket schemes
# keep la.SolveGE / la.SolveDGESV as the reference).
if grep -n 'la\.Factor(\|la\.FactorBlocked(' $CORE_SRC ||
	grep -n 'func SolveGEMulti\|func SolveFactoredMulti' internal/la/*.go; then
	echo "internal/core must solve on the lane kernels alone; internal/la must define no multi-RHS solve" >&2
	exit 1
fi
# One lane factorisation kernel: FactorLanes runs factorLanesBlocked at
# every n, its form chosen by CPUID alone, so internal/la's assembly
# defines one factorLanes symbol and no non-test file of internal/la
# names the old size threshold's variable (a bracket pattern, so that a
# grep of the tree for that name matches code, not this script), and a
# second kernel cannot come back unseen.
LA_SRC=$(ls internal/la/*.go | grep -v _test.go)
if [ "$(cat internal/la/*.s | grep -c '^TEXT ·factorLanes')" != 1 ] ||
	grep -n 'blocked[M]inN' $LA_SRC; then
	echo "internal/la must define one TEXT ·factorLanes kernel and no size threshold" >&2
	exit 1
fi
# One angular-flux buffer: psi holds one iterate and is never swapped.
# Lagged couplings read the lag store, so no non-test file in
# internal/core assigns s.psi anywhere but its allocation in New, and a
# second buffer cannot come back unseen.
if [ "$(cat $CORE_SRC | grep -cE '\.psi([[:space:]]*,[^=]*)?[[:space:]]*=[^=]|,[[:space:]]*[[:alnum:]_]+\.psi[[:space:]]*=[^=]')" != 1 ]; then
	echo "internal/core must assign s.psi once, in New" >&2
	exit 1
fi
# One spelling per enum value: the option enums spell themselves from one
# table in their own files (String, MarshalText, UnmarshalText over
# internal/enum), and specs, flags and decks parse through that codec. No
# other non-test file branches on a spelling, so a second parser cannot
# come back unseen.
if grep -rn --include='*.go' --exclude='*_test.go' \
	-e 'case .*"\(GE\|DGESV\|none\|dsa\|lagged\|pipelined\|fail\|retry\|degrade\)"' -e '== "DGESV"' . |
	grep -v '^\./internal/core/config\.go:\|^\./internal/sweep/condense\.go:\|^\./internal/comm/comm\.go:\|^\./internal/comm/failure\.go:'; then
	echo "option spellings must be parsed by their enum's text codec, not by a switch" >&2
	exit 1
fi
# One classifier: internal/build is the only code that classifies faces
# and condenses or schedules an ordinate's graph (internal/sweep defines
# the algorithms), so no other non-test file of the module calls them and
# a private copy of the rule cannot come back unseen. The benchmark is its
# own module and times these calls directly. A face has one normal,
# fem.RefElement.FaceUnitNormal: only fem (which defines it), mesh
# (cross-rank pair normals), build (the classifier) and harness (Table
# I's assembly) call it. meshgen reads the build's topology stage and
# never runs the full build, which would integrate element matrices it
# does not print.
if grep -rn --include='*.go' --exclude='*_test.go' 'sweep\.\(Condense\|BuildWithLagging\|BuildCut\)(' . |
	grep -v '^\./internal/build/\|^\./internal/sweep/\|^\./benchmark/' ||
	grep -rn --include='*.go' --exclude='*_test.go' 'FaceUnitNormal(' . |
	grep -v '^\./internal/fem/\|^\./internal/mesh/\|^\./internal/build/\|^\./internal/harness/' ||
	grep -n 'build\.Build(' cmd/meshgen/*.go; then
	echo "only internal/build may call sweep.Condense, sweep.BuildWithLagging or sweep.BuildCut; only internal/fem, internal/mesh, internal/build and internal/harness may call FaceUnitNormal; cmd/meshgen may not call build.Build" >&2
	exit 1
fi
# Bench-tool smoke pass: the kernel experiment (the one BENCH_sweep.json
# section) executes end to end on tiny problems — seconds, not minutes —
# so the bench plumbing cannot bit-rot between real refreshes. -smoke
# never writes JSON.
go run ./cmd/unsnap-bench -experiment kernel -smoke
# meshgen reads its schedules, lag counts and largest SCC from
# internal/build: its stats must match the recorded output on the default
# mesh, on a cyclic one under both cut rules (-cyclic's verdict goes to
# stderr, recorded in line) and at order 3.
go run ./cmd/meshgen stats | diff - testdata/meshgen/default.txt
go run ./cmd/meshgen -nx 6 -twist 0.35 -periods 2 stats | diff - testdata/meshgen/twist.txt
go run ./cmd/meshgen -nx 6 -twist 0.35 -periods 2 -cycle-order feedback-arc -cyclic stats 2>&1 |
	diff - testdata/meshgen/twist-fas-cyclic.txt
go run ./cmd/meshgen -nx 12 -order 3 stats | diff - testdata/meshgen/order3.txt
# Artifact-cache smoke: two solves of one problem through one cache must
# hit on the second build and match bitwise. The binary prints a
# machine-checkable verdict line; grep pins it so a silent cache miss
# (or a flux divergence between cached and uncached builds) fails CI.
go run ./cmd/unsnap -nx 4 -nang 2 -ng 2 -iitm 4 -oitm 1 -force-iterations -cache-stats \
	| grep -q 'cache-stats: warm hit true, flux bitwise match true'
# Solve-service smoke: boot the HTTP service on loopback, submit one tiny
# solve twice, and require both to converge with the second paying zero
# topology builds (the shared-cache promise over the wire) before a clean
# drain. The verdict line is machine-checkable; grep pins it.
go run ./cmd/unsnap-serve -smoke \
	| grep -q 'serve-smoke: converged true, warm builds 0, shutdown clean true'
# The end-to-end benchmark is its own module (benchmark/go.mod), so the
# root `go test ./...` never reaches it: run its test here, or a facade
# or internal/la change can break the benchmark unseen.
(cd benchmark && go test .)
# Dense-solve bitwise suite: every wrapper over la's one elimination core,
# MulTN, the lane factorisation and formation, the lane triangular solve
# (packed and strided) and the lane face apply (one block for every lane,
# or one block per lane) against the reference
# loops (each lane against Factor / AddScaledTo / SolveFactored on its
# own system, or its own scalar row sums) — on the pure-Go loops, on
# the AVX2 kernels and on their AVX-512 form (la's tests fail where
# /proc/cpuinfo lists avx512f but that pass cannot run), the paths also
# against each other — and the kernels'
# window (canary) tests, uncached and under the race detector, then a
# short fuzz of each oracle.
go test -race -count=1 -run 'Eliminate|Bitwise|Window|FactorBlocked|MulTN|TriSolveLanes|FactorLanes|AddScaledToLanes|FaceApplyLanes' ./internal/la
go test -run '^$' -fuzz=FuzzEliminateBitwise -fuzztime=5s ./internal/la
go test -run '^$' -fuzz=FuzzTriSolveLanesBitwise -fuzztime=5s ./internal/la
go test -run '^$' -fuzz=FuzzFactorLanesBitwise -fuzztime=5s ./internal/la
go test -run '^$' -fuzz=FuzzFaceApplyLanesBitwise -fuzztime=5s ./internal/la
go test -run '^$' -fuzz=FuzzFaceApplyLanesPerLaneBitwise -fuzztime=5s ./internal/la
# Element-matrix bitwise suite: fem's la.MulTN integration against the
# scalar quadrature loop it replaced (every field bit for bit, faces with
# exact-zero normal components included), the allocation and heap-bytes pin and
# the volume-only path, repeated, then a short fuzz of the same oracle.
go test -count=3 -run 'ComputeMatricesBitwise|ComputeMatricesAllocs|VolumeMatchesComputeMatrices' ./internal/fem
go test -run '^$' -fuzz=FuzzComputeMatricesBitwise -fuzztime=5s ./internal/fem
# Task-kernel bitwise suite (kernel_test.go): batched == scalar across the
# boundary / scattering / time-stepping matrix and every four-group panel
# shape, the parent-commit flux digest, the zero-allocation sweep and
# reset == fresh — uncached and under the race detector (the source pass
# in PrepareInner and the face panel share per-worker scratch) — then a
# short fuzz of the same oracle. The PreAssembled tests ride the same
# line: the factor store's eager fill is a parallel writer over that
# per-worker scratch, and the unclosed-solver leak test only means
# something with the detector on. The lane panels ride it too: every
# width plan, cached == uncached == scalar, the store's fused face blocks
# bitwise the task's, a mask mismatch on the private path,
# allocation-free either way, a singular panel failing as the per-run
# path does, its timer split, and the lane-major engine against the
# bucket executor at one to eight groups. The angle-set tasks ride it
# too: sets of one to four ordinates of one- and two-group problems on
# every boundary kind, batched == scalar, cached and uncached.
go test -race -count=1 -run 'Kernel|SweepTaskAllocFree|ResetState|BuildSigtRuns|PreAssembled|Preassembled|UnclosedSolver|FactorCache' ./internal/core
# The factor store's lifecycle — Run -> Close -> Run bitwise, nothing
# reading a released store, the live-bytes counter back at its baseline
# after Close and after a dropped solver's cleanup — repeated and without
# the race detector: only there is the store a mapping, whose pages fault
# when read after release.
go test -count=3 -run 'StoreLifecycle|UnclosedSolver' ./internal/core
go test -run '^$' -fuzz=FuzzKernelBatchedBitwise -fuzztime=5s ./internal/core
# Wire-format fuzz: ParseSpec never panics, and every spec it accepts
# round-trips through SpecOf(Resolve()).
go test -run '^$' -fuzz=FuzzParseSpec -fuzztime=5s .
# Cyclic-mesh equivalence first (engine vs legacy bucket path, pipelined
# vs single domain, 1e-12 — including the per-cycle-order strategy
# equivalence tests) under the race detector: the cycle-aware engine's
# lag-store reads during a sweep, its refill round after the sweep and
# the shifted cross-rank channel are exactly the kind of concurrency the
# detector exists for. The lag store's own pin (TestCyclicLagStore)
# rides the line.
go test -race -run 'Cyclic|CycleOrder|FeedbackArc' ./internal/core ./internal/comm .
# Acceleration suite under the race detector: the factor cache's
# lock-free entry states (first-builder CAS, release-store publish) and
# the rank-local DSA hooks in both halo protocols are concurrent by
# construction; the suite also pins the cached kernel's bitwise parity
# and DSA's fewer-inners/same-answer contract.
go test -race -run 'Accel|DSA|SolvePCG' ./internal/core ./internal/comm ./internal/accel ./internal/la .
# The one source iteration and the pipelined max-barrier: every rank of a
# convergence-gated pipelined run calls core.Iterate on its own goroutine
# and agrees each decision through the barrier, so the scripted-stepper
# table and the pipelined == single-domain parity suites (flux and
# iteration counts) run repeated under the detector — a barrier round
# handed to the wrong generation shows as a count mismatch or a race only
# on some schedules. The worker pool rides the same line: its rounds,
# restart after Close, goroutine budget, panic containment and the armed
# sweep's zero allocations are lost-wake-up and leak questions. The
# lagged protocol shares the External slots: its parity digest, the
# self-driven sweep's bitwise pin and the in-place degrade ride it too.
# Reflective solves run in the same fused phase, their mirror reads
# ordered by graph edges: the reflective parity digest and equivalence
# tests ride the line as well.
go test -race -count=3 -run 'Iterate|Pipelined|MultiRank|SingleRank|Pool|PanicContained|GoroutineBudget|CloseAndReuse|ArmedSweepAllocFree|StaticLoopsAllocFree|Lagged|Degrade|Digest|SelfDriven|Reflect' ./internal/core ./internal/comm
# Chaos smoke pass: the seeded fault-injection suite (delay/reorder
# parity, drop+retry recovery, stall-within-deadline, degrade-to-lagged,
# Close-mid-fault, goroutine-leak checks) under the race detector — the
# failure-domain layer's whole contract is concurrency-shaped, so it
# only counts when the detector watches it, and a schedule-dependent race
# only shows over repeated runs.
go test -race -count=20 -run 'Fault|Chaos|Deadline' ./internal/fault ./internal/comm .
# Solve-service suite under the race detector: the worker pool, the
# close-and-replace event broadcast, cancel-vs-dequeue and the
# shutdown drain are all cross-goroutine by design, and the cancel test's
# goroutine-leak accounting only means something with the detector on.
go test -race ./internal/serve
go test -race -short ./...
