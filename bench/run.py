"""Run the repository benchmark (see bench/README.md).

One workload, in this process::

    python3 bench/run.py --workload train-paper --seed 0 --seconds 10 --trace 0

Every workload, each run in a fresh interpreter so peak RSS belongs to
one workload (``--repeat N`` runs seeds ``seed .. seed+N-1``;
``--trace 1`` adds one traced run per workload)::

    python3 bench/run.py --seed 0 [--repeat 5] [--trace 1] [--out runs.jsonl]

A run sets its inputs up several times (``setup_s`` is the median),
then measures for ``--seconds`` seconds and checks the program's
outputs.  Untraced runs report the end-to-end metrics of
``BENCHMARK.json``; traced runs (``--trace 1``) report its per-layer
metrics and write their spans to ``bench/out/trace-<workload>.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when an output check fails.  The benchmark never sets BLAS or
OpenMP thread variables; it records them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
from workloads import (  # noqa: E402
    NEIGHBOURS,
    OUT_DIR,
    WORKLOADS,
    HostClock,
    Probe,
    export_spans,
    layer_metrics,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: set-up repetitions per run, ``setup_s`` is their median: this many,
#: or as many as fit in ``SETUP_BUDGET_S`` but at least 3
SETUP_REPEATS = 5
SETUP_BUDGET_S = 4.0
#: share of a traced run's seconds spent untraced, as the overhead baseline
BASELINE_SHARE = 1 / 3


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; safe with the ``inf`` of failed requests."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _iqr(values) -> float | None:
    finite = [v for v in values if math.isfinite(v)]
    if len(finite) < 2:
        return None
    q1, _, q3 = statistics.quantiles(finite, n=4)
    return q3 - q1


def peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass  # no procfs: getrusage reports kB on Linux, bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        return "unknown"


def environment(run_id: str, seed: int) -> dict:
    return {
        "run_id": run_id,
        "commit": _commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    on_setup=None,
) -> dict:
    """One run of one workload in this process; returns its report.

    ``on_setup(state)`` runs after the last set-up, before measuring
    (the self-tests inject a slowdown through it).
    """
    run_id = uuid.uuid4().hex[:12]
    workload = WORKLOADS[name](quick)
    clock = HostClock()
    setups, raw_setups, gens = [], [], []
    state = None
    try:
        while len(setups) < 3 or (
            len(setups) < SETUP_REPEATS and sum(raw_setups) < SETUP_BUDGET_S
        ):
            if state is not None:
                workload.close(state)
                state = None
            clock.sample(NEIGHBOURS)
            start = time.perf_counter()
            state = workload.setup(seed)
            end = time.perf_counter()
            clock.sample(NEIGHBOURS)
            raw_setups.append(end - start)
            setups.append((end - start) * clock.scale(start, end))
            gens.append(state["gen_s"])
        if on_setup is not None:
            on_setup(state)
        if trace:
            base = workload.measure(state, seconds * BASELINE_SHARE)
            with Probe() as probe:
                origin = time.perf_counter()
                sample = workload.measure(state, seconds * (1 - BASELINE_SHARE), probe)
            values = layer_metrics(probe)
            values["data.gen_s"] = statistics.median(gens)
            values["trace.overhead_ratio"] = _quantile(
                sample.latency_s, 0.5
            ) / _quantile(base.latency_s, 0.5)
            spread, tail, raw = {}, {}, {}
            attempted = base.attempted + sample.attempted
            failed = base.failed + sample.failed
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            (OUT_DIR / f"trace-{name}.json").write_text(
                json.dumps({"run_id": run_id, "workload": name, "seed": seed,
                            "spans": export_spans(probe, origin)}),
                encoding="utf-8",
            )
        else:
            sample = workload.measure(state, seconds)
            latency, rates = sample.latency_s, sample.rates
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
                "items_per_s": statistics.median(rates),
                "latency_p50_ms": 1e3 * _quantile(latency, 0.5),
            }
            spread = {
                "setup_s": (_iqr(setups), len(setups)),
                "items_per_s": (_iqr(rates), len(rates)),
                "latency_p50_ms": (_iqr([1e3 * v for v in latency]), len(latency)),
                "peak_rss_mb": (None, 1),
            }
            # The same metrics as measured, before scaling to the nominal host.
            raw = {
                "setup_s": statistics.median(raw_setups),
                "items_per_s": statistics.median(sample.raw_rates),
                "latency_p50_ms": 1e3 * _quantile(sample.raw_latency_s, 0.5),
                "reference_kernel_ms": sample.clock.kernel_ms(),
            }
            # Tails are reported, not gated: from run to run they move more
            # than a bound of 0.25.  Each has at least 10 samples beyond it.
            tail = {
                f"p{q}_ms": 1e3 * _quantile(latency, q / 100)
                for q in (90, 99) if len(latency) * (1 - q / 100) >= 10
            }
            attempted, failed = sample.attempted, sample.failed
        checks = workload.check(state)
        quality = state.get("quality", {})
    finally:
        if state is not None:
            workload.close(state)

    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"{name} measured {sorted(values)}, but BENCHMARK.json declares "
            f"{sorted(m['name'] for m in declared)}"
        )
    return {
        "run_id": run_id,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "env": environment(run_id, seed),
        "correct": not checks,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "quality": quality,
        "latency_tail": tail,
        "raw": raw,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
        "spread": {
            key: {"iqr": iqr, "n": n} for key, (iqr, n) in spread.items()
        },
    }


def result_line(report: dict) -> str:
    """The last line of a run's output, the one other tools parse."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def print_report(report: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    print(
        f"run {report['run_id']}: {report['workload']} seed {report['seed']}, "
        f"{report['seconds']:g} s {mode}, {report['attempted']} attempted, "
        f"{report['failed']} failed"
    )
    print("env " + json.dumps(report["env"]))
    if report["quality"]:
        print("quality " + json.dumps(report["quality"]))
    if report["latency_tail"]:
        print("latency tail " + json.dumps(report["latency_tail"]))
    if report["raw"]:
        print("unscaled " + json.dumps(report["raw"]))
    for name, metric in report["metrics"].items():
        spread = report["spread"].get(name, {})
        iqr, n = spread.get("iqr"), spread.get("n")
        detail = f"  n {n}" if n is not None else ""
        if iqr is not None:
            detail += f"  IQR {iqr:.6g}"
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:6s}{detail}")
    for failure in report["checks"]:
        print(f"CHECK FAILED: {failure}")


def _append(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as out:
        out.write(json.dumps(report) + "\n")


def run_all(args) -> int:
    """Every workload, each run in a fresh interpreter."""
    results: dict[str, list[dict]] = {}
    ok = True
    seeds = range(args.seed, args.seed + args.repeat)
    modes = [0, 1] if args.trace else [0]
    for name in WORKLOADS:
        for seed in seeds:
            for trace in modes if seed == args.seed else [0]:
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                command += ["--quick"] if args.quick else []
                command += ["--out", str(args.out.resolve())] if args.out else []
                child = subprocess.run(
                    command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                    timeout=900,
                )
                print(child.stdout.rstrip())
                lines = child.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    result = None
                if child.returncode != 0 or result is None or not result["correct"]:
                    ok = False
                if result is not None:
                    results.setdefault(f"{name}/{trace}", []).append(result)

    print("summary: median over runs (IQR, n)")
    summary = {}
    attempted = failed = 0
    for key, runs in results.items():
        name = key.split("/")[0]
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            iqr = _iqr(values)
            summary[f"{name}/{metric}"] = {"value": median, "unit": unit}
            spread = f"IQR {iqr:.6g}, " if iqr is not None else ""
            print(f"  {name:20s} {metric:34s} {median:14.6g} {unit:6s} "
                  f"({spread}n {len(values)})")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, "
                        "each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: runs per workload, one seed each")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the self-tests")
    parser.add_argument("--out", type=Path,
                        help="append each run's full report to this JSON Lines file")
    args = parser.parse_args(argv)

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"bench: imported repro from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.quick)
    if args.out:
        _append(args.out, report)
    print_report(report)
    print(result_line(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
