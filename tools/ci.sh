#!/usr/bin/env bash
# Local CI pipeline — the network-free mirror of .github/workflows/ci.yml.
#
# Stages (kept in lock-step with the workflow by tests/test_ci_consistency.py):
#
#   lint          tools/lint.py AST checks (bare except, mutable defaults,
#                 global numpy RNG)
#   tier-1        the full unit/integration/property suite (every marker
#                 suite included; select one locally with pytest -m <marker>)
#   bench-compare the performance floors of the benchmark tests marked
#                 `bench` (streaming memory, serving throughput, parallel
#                 speedup, fused step, sparse scaling), then the
#                 repository benchmark's self-tests (bench/test_bench.py:
#                 quick runs of every workload through bench/run.py's
#                 output checks)
#
# Usage: tools/ci.sh            (run everything)
#        tools/ci.sh lint tier-1   (run selected stages)

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

stage() { echo; echo "== stage: $1 =="; }

STAGES=("$@")
runs() {
    [ "${#STAGES[@]}" -eq 0 ] && return 0
    for requested in "${STAGES[@]}"; do
        [ "$requested" = "$1" ] && return 0
    done
    return 1
}

if runs lint; then
    stage lint
    python tools/lint.py
fi

if runs tier-1; then
    stage tier-1
    python -m pytest -x -q
fi

if runs bench-compare; then
    stage bench-compare
    python -m pytest -q benchmarks -m bench
    python -m pytest bench -q
fi

echo
echo "ci.sh: all requested stages passed"
