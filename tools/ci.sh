#!/usr/bin/env bash
# CI pipeline stages, defined once: each `stage: X` step of
# .github/workflows/ci.yml runs `tools/ci.sh X`, and a local run with no
# arguments runs them all (tests/test_ci_consistency.py checks the wiring).
#
# Stages:
#
#   lint          tools/lint.py's seven AST rules (bare except, mutable
#                 defaults, global numpy RNG, densifying in sparse paths,
#                 unfused attention, materialising in streaming paths,
#                 a dropped edge_attr)
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
