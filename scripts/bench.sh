#!/bin/sh
# bench.sh — refreshes the repo's micro-ledger: runs the task-kernel
# comparison (batched vs scalar task bodies with the steady-state
# allocation rate, the dense local solve table and the uncached
# high-order task) and records it into BENCH_sweep.json at the repo root,
# stamped with the git commit and machine; the section it replaces is
# kept as the before/after pair. docs/BENCH.md documents the JSON schema
# and names the traced-benchmark metrics (benchmark/run.sh --trace 1)
# that judge every other performance question.
# Extra flags are passed through to cmd/unsnap-bench (e.g. -inners 10).
set -e
cd "$(dirname "$0")/.."
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# Uncommitted changes (other than the ledger this script writes) are not
# HEAD's numbers: say so in the stamp.
if [ -n "$(git status --porcelain -- . ':!BENCH_sweep.json' 2>/dev/null)" ]; then
	COMMIT="$COMMIT-dirty"
fi
exec go run ./cmd/unsnap-bench -experiment kernel -threads 1,2,4 \
	-json BENCH_sweep.json -commit "$COMMIT" "$@"
