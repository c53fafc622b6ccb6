"""Closed-loop load generator for :class:`~repro.serve.InferenceService`.

Closed-loop means each client thread keeps exactly one request in
flight: it blocks on the response before issuing the next.  With C
clients the service sees at most C concurrent requests, which is the
regime micro-batching exploits — the worker coalesces whatever the
blocked clients re-issue together.  Throughput and latency are
therefore coupled (no coordinated-omission correction is needed: every
issued request is timed).

The same generator drives both sides of the serving throughput
benchmark (benchmarks/test_serve_throughput.py): a ``max_batch_size=1``
service is the serial one-request-at-a-time baseline, a
``max_batch_size=16`` service is the micro-batched contender.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LoadReport:
    """Aggregate result of one closed-loop run."""

    kind: str
    clients: int
    requests: int
    errors: int
    wall_s: float
    throughput_rps: float
    p50_s: float
    p99_s: float
    mean_s: float
    batches: int
    mean_batch_size: float
    cache_hit_rate: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "cache_hit_rate": self.cache_hit_rate,
        }


def run_closed_loop(
    service,
    graphs,
    *,
    kind: str = "classify",
    clients: int = 4,
    requests_per_client: int = 25,
    k: int = 5,
) -> LoadReport:
    """Drive ``service`` with ``clients`` blocking threads and measure.

    Client ``i`` cycles deterministically over ``graphs[i::clients]``,
    so the workload (and with it the cache hit pattern) is reproducible
    run to run.  Latency percentiles are over *all* issued requests.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph to generate load")
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be positive")

    batches_before = service.stats()["batches"]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(i: int) -> None:
        mine = graphs[i::clients] or graphs
        barrier.wait()
        for j in range(requests_per_client):
            graph = mine[j % len(mine)]
            started = time.perf_counter()
            try:
                if kind == "classify":
                    service.classify(graph)
                elif kind == "embed":
                    service.embed(graph)
                elif kind == "top_k":
                    service.top_k(graph, k)
                else:
                    raise ValueError(f"unknown load kind {kind!r}")
            except Exception:
                errors[i] += 1
            latencies[i].append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started

    samples = np.array([s for per_client in latencies for s in per_client])
    stats = service.stats()
    batches = stats["batches"] - batches_before
    return LoadReport(
        kind=kind,
        clients=clients,
        requests=int(samples.size),
        errors=sum(errors),
        wall_s=wall_s,
        throughput_rps=samples.size / wall_s if wall_s > 0 else float("inf"),
        p50_s=float(np.percentile(samples, 50)),
        p99_s=float(np.percentile(samples, 99)),
        mean_s=float(samples.mean()),
        batches=batches,
        mean_batch_size=samples.size / batches if batches else 0.0,
        cache_hit_rate=stats["cache"]["hit_rate"],
    )
