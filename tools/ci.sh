#!/usr/bin/env bash
# Local CI pipeline — the network-free mirror of .github/workflows/ci.yml.
#
# Stages (kept in lock-step with the workflow by tests/test_ci_consistency.py):
#
#   lint          tools/lint.py AST checks (bare except, mutable defaults,
#                 global numpy RNG)
#   tier-1        the full unit/integration/property suite
#   gates         the marker suites: equivalence (batched-vs-loop),
#                 checkpoint (resume bitwise-equivalence), profile
#                 (instrumentation smoke), parallel (multiprocess
#                 determinism), sparse (dense-vs-CSR backend
#                 equivalence), fused (fused-kernel equivalence +
#                 gradchecks), serve (online-serving faithfulness),
#                 streaming (sharded out-of-core pipeline equivalence),
#                 molecular (edge-conditioned forward equivalence +
#                 regression workload)
#   bench-compare tools/bench_gate.py vs results/bench_baseline.json, then
#                 the repository benchmark's self-tests (bench/test_bench.py:
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

if runs gates; then
    stage gates
    python -m pytest -q -m equivalence
    python -m pytest -q -m checkpoint
    python -m pytest -q -m profile
    python -m pytest -q -m parallel
    python -m pytest -q -m sparse
    python -m pytest -q -m fused
    python -m pytest -q -m serve
    python -m pytest -q -m streaming
    python -m pytest -q -m molecular
fi

if runs bench-compare; then
    stage bench-compare
    python tools/bench_gate.py
    python -m pytest bench -q
fi

echo
echo "ci.sh: all requested stages passed"
