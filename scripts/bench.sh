#!/bin/sh
# bench.sh — the repo's perf-trajectory target: runs the engine-vs-legacy
# sweep comparison (including the cross-octant overlap mode), the
# lagged-vs-pipelined halo protocol comparison, the cyclic-mesh
# comparison (legacy lagged vs cycle-aware engine vs engine+pipelined on
# a genuinely cyclic twisted mesh), the problem-build comparison (cold
# artifact build vs warm cache fetch) and the task-kernel comparison
# (batched vs scalar task bodies, with the steady-state allocation rate)
# and the synthetic-diffusion-acceleration comparison (inners to
# convergence with DSA off vs on across scattering ratios and solver
# configurations), and records ns/op per sweep into BENCH_sweep.json at
# the repo root, stamped with the git commit and machine so successive
# PRs can attribute the hot-path trajectory. docs/BENCH.md documents the
# JSON schema: section shapes, per-section commit/machine stamps, and the
# merge-by-key semantics that make partial refreshes safe.
# Extra flags are passed through to cmd/unsnap-bench (e.g. -inners 10).
set -e
cd "$(dirname "$0")/.."
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# Uncommitted changes (other than the ledger this script writes) are not
# HEAD's numbers: say so in the stamp.
if [ -n "$(git status --porcelain -- . ':!BENCH_sweep.json' 2>/dev/null)" ]; then
	COMMIT="$COMMIT-dirty"
fi
exec go run ./cmd/unsnap-bench -experiment engine,comm,cycles,setup,kernel,accel -threads 1,2,4 \
	-json BENCH_sweep.json -commit "$COMMIT" "$@"
