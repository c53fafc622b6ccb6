"""Profile a small HAP training run (docs/observability.md).

Trains a tiny HAP classifier on synthetic IMDB-B-like graphs with the
op profiler and the span tracer active, then prints two breakdowns:

- per-module: span-tree paths (epoch / step / forward / encoder / moa /
  coarsen / backward / optimizer) with call counts and self time;
- per-op: every autograd op's call count, forward/backward wall time
  and output bytes.

The same report is written as JSON (schema ``repro.profile/v1``) under
``results/`` so successive optimisation PRs can diff breakdowns against
``results/profile_baseline.json``.

    PYTHONPATH=src python tools/profile_run.py [--epochs 2] [--tag baseline]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core import build_hap_embedder
from repro.data import attach_degree_features, make_imdb_b_like
from repro.models.classifier import GraphClassifier
from repro.observe import aggregate_spans, coverage, profile_ops, trace
from repro.training.trainer import TrainConfig, fit

PROFILE_SCHEMA = "repro.profile/v1"


def profile_training(
    num_graphs: int = 16,
    epochs: int = 2,
    hidden: int = 8,
    batch_size: int = 8,
    seed: int = 0,
    batched: bool = True,
    conv: str = "gcn",
    cluster_sizes: tuple[int, ...] = (4, 2),
) -> dict:
    """Train a small HAP classifier under full instrumentation.

    Returns the ``repro.profile/v1`` report dict (see
    :func:`validate_profile` for the required keys).
    """
    rng = np.random.default_rng(seed)
    graphs = [attach_degree_features(g) for g in make_imdb_b_like(num_graphs, rng)]
    model = GraphClassifier(
        build_hap_embedder(16, hidden, list(cluster_sizes), rng, conv=conv),
        num_classes=2,
        rng=rng,
    )
    config = TrainConfig(epochs=epochs, batch_size=batch_size, batched=batched)

    wall_start = time.perf_counter()
    with profile_ops() as prof:
        with trace("train") as root:
            fit(model, graphs, rng, config)
    wall_time = time.perf_counter() - wall_start

    return {
        "schema": PROFILE_SCHEMA,
        "config": {
            "num_graphs": num_graphs,
            "epochs": epochs,
            "hidden": hidden,
            "batch_size": batch_size,
            "seed": seed,
            "batched": batched,
            "conv": conv,
            "cluster_sizes": list(cluster_sizes),
        },
        "wall_time_s": wall_time,
        "train_time_s": root.duration_s,
        "coverage": coverage(root, "step"),
        "modules": sorted(
            aggregate_spans(root).values(),
            key=lambda row: row["total_s"],
            reverse=True,
        ),
        "ops": prof.summary(),
        "num_parameters": model.num_parameters(),
    }


def validate_profile(report: dict) -> None:
    """Check a profile report against the ``repro.profile/v1`` schema."""
    if report.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"unsupported profile schema {report.get('schema')!r} "
            f"(expected {PROFILE_SCHEMA!r})"
        )
    for key in (
        "config",
        "wall_time_s",
        "train_time_s",
        "coverage",
        "modules",
        "ops",
        "num_parameters",
    ):
        if key not in report:
            raise ValueError(f"profile report is missing {key!r}")
    for field in ("span", "calls", "total_s", "accounted_s", "fraction"):
        if field not in report["coverage"]:
            raise ValueError(f"profile coverage is missing {field!r}")
    for row in report["modules"]:
        for field in ("path", "calls", "total_s", "self_s"):
            if field not in row:
                raise ValueError(f"module row {row} is missing {field!r}")
    for row in report["ops"]:
        for field in (
            "name",
            "calls",
            "forward_s",
            "forward_self_s",
            "backward_calls",
            "backward_s",
            "total_s",
            "bytes_out",
            "peak_bytes",
        ):
            if field not in row:
                raise ValueError(f"op row {row.get('name')!r} is missing {field!r}")


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024:
            return f"{n:.0f}{unit}"
        n /= 1024
    return f"{n:.1f}TB"


def format_report(report: dict) -> str:
    """Render the per-module and per-op breakdown tables."""
    lines = []
    cov = report["coverage"]
    lines.append(
        f"trained {report['config']['epochs']} epochs in "
        f"{report['train_time_s']:.3f}s "
        f"({report['num_parameters']} parameters, "
        f"batched={report['config']['batched']})"
    )
    lines.append(
        f"step coverage: {cov['fraction']:.1%} of {cov['total_s']:.3f}s "
        f"across {cov['calls']} steps accounted for by child spans"
    )
    lines.append("")
    lines.append("per-module (span-tree paths)")
    lines.append(f"{'path':<42}{'calls':>7}{'total_s':>10}{'self_s':>10}")
    for row in report["modules"]:
        lines.append(
            f"{row['path']:<42}{row['calls']:>7}"
            f"{row['total_s']:>10.4f}{row['self_s']:>10.4f}"
        )
    lines.append("")
    lines.append("per-op (autograd engine)")
    lines.append(
        f"{'op':<16}{'calls':>7}{'fwd_s':>9}{'bwd_calls':>10}{'bwd_s':>9}"
        f"{'total_s':>9}{'peak':>8}"
    )
    for row in report["ops"]:
        lines.append(
            f"{row['name']:<16}{row['calls']:>7}{row['forward_s']:>9.4f}"
            f"{row['backward_calls']:>10}{row['backward_s']:>9.4f}"
            f"{row['total_s']:>9.4f}{_fmt_bytes(row['peak_bytes']):>8}"
        )
    op_total = sum(r["total_s"] for r in report["ops"])
    lines.append(f"{'(sum)':<16}{'':>7}{'':>9}{'':>10}{'':>9}{op_total:>9.4f}")
    return "\n".join(lines)


def format_top_ops(report: dict, top: int) -> str:
    """Flat hot-op table: the ``top`` costliest ops by total time.

    One row per op — name, calls, forward *self* time (child ops
    excluded, so composite kernels don't double-count), backward time,
    total, share of all op time, and output bytes — the CLI face of
    ``tools/hotspots.py`` mining, for hotspot triage without reading
    the raw JSON.
    """
    rows = sorted(report["ops"], key=lambda r: r["total_s"], reverse=True)
    op_total = sum(r["total_s"] for r in rows) or 1.0
    lines = [
        f"top {min(top, len(rows))} ops by total time",
        f"{'op':<20}{'calls':>7}{'fwd_self_s':>12}{'bwd_s':>9}"
        f"{'total_s':>9}{'share':>7}{'bytes':>9}",
    ]
    for row in rows[:top]:
        lines.append(
            f"{row['name']:<20}{row['calls']:>7}{row['forward_self_s']:>12.4f}"
            f"{row['backward_s']:>9.4f}{row['total_s']:>9.4f}"
            f"{row['total_s'] / op_total:>7.1%}{_fmt_bytes(row['bytes_out']):>9}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-graphs", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--hidden", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--conv", default="gcn", choices=["gcn", "gat", "gin", "sage"])
    parser.add_argument(
        "--loop",
        action="store_true",
        help="profile the per-graph loop instead of the padded batched path",
    )
    parser.add_argument("--tag", default="run", help="suffix of the output file name")
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default results/profile_<tag>.json)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also print a flat table of the N hottest ops "
        "(name, calls, fwd/bwd self time, bytes)",
    )
    args = parser.parse_args(argv)

    report = profile_training(
        num_graphs=args.num_graphs,
        epochs=args.epochs,
        hidden=args.hidden,
        batch_size=args.batch_size,
        seed=args.seed,
        batched=not args.loop,
        conv=args.conv,
    )
    validate_profile(report)
    print(format_report(report))
    if args.top > 0:
        print()
        print(format_top_ops(report, args.top))

    out = Path(args.out) if args.out else Path("results") / f"profile_{args.tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
