"""Out-of-core memory gate: streamed 50k graphs vs in-memory 10k.

Runs the three subprocess RSS probes from ``tools/bench_gate.py``
(docs/streaming.md): an import-only interpreter baseline, the
in-memory loader at 10k graphs, and one full shuffled epoch over a
sharded 50k-graph corpus — generation included, since bounded writer
memory (chunked per-shard generation) is part of the out-of-core
contract.  The acceptance bars for this reproduction:

- the 5x-larger streamed corpus peaks *below* the in-memory loader's
  RSS (the absolute tentpole claim),
- the streamed epoch's RSS growth over the bare interpreter stays
  under a fixed fraction of the in-memory loader's growth, so the
  claim survives interpreter-baseline drift,
- ``stream_step_s`` — the per-batch cost of serving training data
  through the planned-read shard window — is recorded for the
  regression gate.

The same measurement gates CI through ``tools/bench_gate.py`` (the
``streaming`` report section plus the ``stream_step_s`` timing
compared against ``results/bench_baseline.json``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from benchmarks.conftest import persist_rows, run_once

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_gate  # noqa: E402


@pytest.mark.bench
def test_streaming_memory(benchmark):
    def experiment():
        streaming = bench_gate.measure_streaming_memory()
        streaming["stream_step_s"] = bench_gate._stream_step_time()
        return streaming

    streaming = run_once(benchmark, experiment)
    config = streaming["config"]

    print(
        f"\nbaseline interpreter: {streaming['baseline_rss_mb']:7.1f} MB RSS"
    )
    print(
        f"in-memory {config['inmem_graphs']:>6} graphs: "
        f"{streaming['inmem_rss_mb']:7.1f} MB RSS "
        f"(+{streaming['inmem_delta_mb']:.1f} MB)"
    )
    print(
        f"streamed  {config['stream_graphs']:>6} graphs: "
        f"{streaming['stream_rss_mb']:7.1f} MB RSS "
        f"(+{streaming['stream_delta_mb']:.1f} MB, "
        f"delta ratio {streaming['delta_ratio']:.2f}, "
        f"shard_size {config['shard_size']}, "
        f"window {config['max_cached_shards']})"
    )
    print(f"stream_step: {streaming['stream_step_s'] * 1e3:.2f} ms/batch")

    persist_rows(
        "streaming_memory",
        {
            "baseline_rss_mb": streaming["baseline_rss_mb"],
            "inmem_rss_mb": streaming["inmem_rss_mb"],
            "stream_rss_mb": streaming["stream_rss_mb"],
            "inmem_delta_mb": streaming["inmem_delta_mb"],
            "stream_delta_mb": streaming["stream_delta_mb"],
            "delta_ratio": streaming["delta_ratio"],
            "stream_step_s": round(streaming["stream_step_s"], 5),
            "stream_graphs": config["stream_graphs"],
            "inmem_graphs": config["inmem_graphs"],
            "shard_size": config["shard_size"],
        },
    )

    # the tentpole claim: a corpus 5x the in-memory one streams within
    # strictly less peak memory than loading the smaller one into RAM
    assert bench_gate.streaming_memory_failures(streaming) == []
    assert streaming["stream_rss_mb"] < streaming["inmem_rss_mb"]
