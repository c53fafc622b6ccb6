"""Out-of-core memory: a streamed 50k-graph epoch vs 10k graphs in RAM.

Three probes, each in a fresh interpreter so its peak RSS belongs to
one loading strategy (docs/streaming.md): an import-only interpreter
baseline, the in-memory loader at 10k graphs, and one full planned
epoch (the dataset's own iteration) over a sharded 50k-graph corpus —
generation included, since bounded writer memory (chunked per-shard
generation) is part of the out-of-core contract.  The acceptance bars:

- the 5x-larger streamed corpus peaks *below* the in-memory loader's
  RSS;
- the streamed epoch's RSS growth over the bare interpreter is at most
  half the in-memory loader's growth, so the claim survives
  interpreter-baseline drift.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.conftest import persist_bench_rows, run_once

REPO = Path(__file__).resolve().parent.parent

#: MUTAG keeps the 50k-graph generation to a few seconds; ``chunked``
#: shard writing bounds the writer at one shard of graphs
STREAM_CONFIG = {
    "dataset": "MUTAG",
    "stream_graphs": 50_000,
    "inmem_graphs": 10_000,
    "shard_size": 500,
    "max_cached_shards": 2,
    "seed": 0,
    "rss_fraction": 0.5,
}

#: /proc VmHWM is the primary source: ``ru_maxrss`` survives fork+exec
#: on Linux, so a child of a fat parent would report the *parent's*
#: high-water mark; VmHWM is reset on exec.
_PROBE_PRELUDE = """\
import resource
import sys

def report_peak_rss():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    print(int(line.split()[1]))
                    return
    except OSError:
        pass  # no procfs (macOS): fall back to getrusage
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes there, KB on Linux
        rss_kb //= 1024
    print(rss_kb)
"""

_BASELINE_PROBE = _PROBE_PRELUDE + """
import numpy  # noqa: F401
import repro.data.streaming  # noqa: F401
report_peak_rss()
"""

_INMEM_PROBE = _PROBE_PRELUDE + """
from repro.data.cache import load_dataset_cached

name, n, seed, cache_dir = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
)
graphs, dim, _ = load_dataset_cached(name, n, seed, cache_dir=cache_dir)
nodes = sum(g.num_nodes for g in graphs)
assert len(graphs) == n and nodes > 0
report_peak_rss()
"""

_STREAM_PROBE = _PROBE_PRELUDE + """
from repro.data.sharding import shard_dataset
from repro.data.streaming import StreamingDataset

name, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
shard_dir, shard_size, window = (
    sys.argv[4], int(sys.argv[5]), int(sys.argv[6])
)
shard_dataset(name, n, seed, shard_dir, shard_size, chunked=True)
nodes = count = 0
with StreamingDataset(shard_dir, max_cached_shards=window) as stream:
    for graph in stream:
        nodes += graph.num_nodes
        count += 1
assert count == n and nodes > 0
report_peak_rss()
"""


def _peak_rss_mb(script: str, *argv) -> float:
    """Peak RSS of ``script`` run in a fresh interpreter, in MB."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=900,
    )
    if result.returncode != 0:
        raise RuntimeError(f"memory probe failed:\n{result.stderr}")
    return int(result.stdout.strip().splitlines()[-1]) / 1024.0  # KB -> MB


@pytest.mark.bench
def test_streaming_memory(benchmark, tmp_path):
    config = STREAM_CONFIG

    def experiment():
        return {
            "baseline_rss_mb": _peak_rss_mb(_BASELINE_PROBE),
            "inmem_rss_mb": _peak_rss_mb(
                _INMEM_PROBE, config["dataset"], config["inmem_graphs"],
                config["seed"], tmp_path / "cache",
            ),
            "stream_rss_mb": _peak_rss_mb(
                _STREAM_PROBE, config["dataset"], config["stream_graphs"],
                config["seed"], tmp_path / "shards",
                config["shard_size"], config["max_cached_shards"],
            ),
        }

    rss = run_once(benchmark, experiment)
    inmem_delta = max(rss["inmem_rss_mb"] - rss["baseline_rss_mb"], 0.0)
    stream_delta = max(rss["stream_rss_mb"] - rss["baseline_rss_mb"], 0.0)
    ratio = stream_delta / inmem_delta if inmem_delta > 0 else None

    print(f"\nbaseline interpreter: {rss['baseline_rss_mb']:7.1f} MB RSS")
    print(
        f"in-memory {config['inmem_graphs']:>6} graphs: "
        f"{rss['inmem_rss_mb']:7.1f} MB RSS (+{inmem_delta:.1f} MB)"
    )
    print(
        f"streamed  {config['stream_graphs']:>6} graphs: "
        f"{rss['stream_rss_mb']:7.1f} MB RSS (+{stream_delta:.1f} MB, "
        f"shard_size {config['shard_size']}, "
        f"window {config['max_cached_shards']})"
    )

    persist_bench_rows(
        "streaming_memory",
        {
            **{name: round(mb, 1) for name, mb in rss.items()},
            "inmem_delta_mb": round(inmem_delta, 1),
            "stream_delta_mb": round(stream_delta, 1),
            "delta_ratio": None if ratio is None else round(ratio, 3),
            "stream_graphs": config["stream_graphs"],
            "inmem_graphs": config["inmem_graphs"],
            "shard_size": config["shard_size"],
        },
    )

    # a corpus 5x the in-memory one streams within strictly less peak
    # memory than loading the smaller one into RAM
    assert rss["stream_rss_mb"] < rss["inmem_rss_mb"]
    assert ratio is not None and ratio <= config["rss_fraction"], (
        f"streamed RSS growth {stream_delta:.1f} MB is {ratio} of the "
        f"in-memory loader's {inmem_delta:.1f} MB, above "
        f"{config['rss_fraction']}"
    )
