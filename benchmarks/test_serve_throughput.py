"""Online-serving throughput: micro-batched vs one-request-at-a-time.

Drives the closed-loop load generator (docs/serving.md) against two
:class:`repro.serve.InferenceService` instances over the same HAP
classifier on COLLAB-like graphs (the biggest the generators produce,
so coalesced batches are large enough for the padded forward to
dominate queueing overhead): ``max_batch_size=1`` (the serial
baseline: every request pays its own forward) and
``max_batch_size=16`` (requests coalesce into padded batches).  A third
run repeats embed requests over a small pool of graphs to measure the
steady-state cache hit rate.  The acceptance bars are micro-batched
throughput *strictly above* serial, a mean batch above one request,
and a cache hit rate above one half.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import persist_bench_rows, run_once
from repro.evaluation.harness import prepare_dataset
from repro.models.zoo import make_classifier
from repro.serve import InferenceService, run_closed_loop

METHOD, DATASET, NUM_GRAPHS, HIDDEN, SEED = "HAP", "COLLAB", 24, 16, 0
CLIENTS, REQUESTS_PER_CLIENT = 8, 20
MAX_BATCH_SIZE, MAX_WAIT_S = 16, 0.002
EMBED_POOL = 8


def _measure_serving() -> dict:
    graphs, dim, num_classes = prepare_dataset(
        DATASET, NUM_GRAPHS, np.random.default_rng(SEED)
    )
    model = make_classifier(
        METHOD, dim, num_classes, np.random.default_rng(SEED), hidden=HIDDEN
    )
    model.eval()
    model.predict(graphs)  # warm-up: CSR caches, first-touch allocations
    load = {"clients": CLIENTS, "requests_per_client": REQUESTS_PER_CLIENT}
    with InferenceService(model, max_batch_size=1, max_wait_s=0.0) as service:
        serial = run_closed_loop(service, graphs, **load)
    batching = {"max_batch_size": MAX_BATCH_SIZE, "max_wait_s": MAX_WAIT_S}
    with InferenceService(model, **batching) as service:
        batched = run_closed_loop(service, graphs, **load)
    with InferenceService(model, **batching) as service:
        embed = run_closed_loop(
            service, graphs[:EMBED_POOL], kind="embed", **load
        )
    return {
        "serial": serial.to_dict(),
        "batched": batched.to_dict(),
        "embed": embed.to_dict(),
    }


@pytest.mark.bench
def test_serve_throughput(benchmark):
    serving = run_once(benchmark, _measure_serving)

    serial = serving["serial"]
    batched = serving["batched"]
    embed = serving["embed"]
    speedup = batched["throughput_rps"] / serial["throughput_rps"]
    print(
        f"\nserial:        {serial['throughput_rps']:8.0f} req/s  "
        f"p50 {serial['p50_s'] * 1e3:6.2f}ms  p99 {serial['p99_s'] * 1e3:6.2f}ms"
    )
    print(
        f"micro-batched: {batched['throughput_rps']:8.0f} req/s  "
        f"p50 {batched['p50_s'] * 1e3:6.2f}ms  p99 {batched['p99_s'] * 1e3:6.2f}ms"
        f"  (mean batch {batched['mean_batch_size']:.1f}, {speedup:.2f}x)"
    )
    print(
        f"embed workload: {embed['throughput_rps']:8.0f} req/s, "
        f"cache hit rate {embed['cache_hit_rate']:.0%}"
    )
    persist_bench_rows(
        "serve_throughput",
        {
            "serial_throughput_rps": serial["throughput_rps"],
            "batched_throughput_rps": batched["throughput_rps"],
            "batching_speedup": speedup,
            "serve_p50_s": batched["p50_s"],
            "serve_p99_s": batched["p99_s"],
            "mean_batch_size": batched["mean_batch_size"],
            "cache_hit_rate": embed["cache_hit_rate"],
        },
    )

    assert serial["errors"] == batched["errors"] == embed["errors"] == 0
    # request coalescing must strictly beat serving one request at a
    # time on the same model and workload
    assert batched["throughput_rps"] > serial["throughput_rps"]
    assert batched["mean_batch_size"] > 1.0
    assert embed["cache_hit_rate"] > 0.5
