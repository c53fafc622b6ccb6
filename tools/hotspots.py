"""Mine ``results/profile_*.json`` for the hottest autograd ops.

Aggregates every ``repro.profile/v1`` report under ``results/`` (or the
files you name) into one ranked table, so each optimisation can
target *measured* cost instead of guessing — the loop described in
docs/performance.md: profile, fuse the top ops, judge the change with
the repository benchmark, repeat.

    PYTHONPATH=src python tools/hotspots.py                # all reports
    PYTHONPATH=src python tools/hotspots.py --top 5
    PYTHONPATH=src python tools/hotspots.py results/profile_run.json

Columns: op name, call count, forward *self* time (composite kernels
don't double-count their children), backward time, total, share of all
op time, and peak output bytes.  ``--per-file`` adds each report's own
top-3, which exposes drift between e.g. the padded-batch and loop
profiles.  Files that are not ``repro.profile/v1`` (like
``profile_overhead.json``) are skipped with a note.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PROFILE_SCHEMA = "repro.profile/v1"

_AGG_SUM = ("calls", "forward_s", "forward_self_s", "backward_calls",
            "backward_s", "total_s", "bytes_out")
_AGG_MAX = ("peak_bytes",)


def load_reports(paths: list[Path]) -> tuple[list[tuple[Path, dict]], list[Path]]:
    """Read ``paths``; returns (valid ``repro.profile/v1`` reports, skipped)."""
    reports: list[tuple[Path, dict]] = []
    skipped: list[Path] = []
    for path in paths:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            skipped.append(path)
            continue
        if isinstance(data, dict) and data.get("schema") == PROFILE_SCHEMA:
            reports.append((path, data))
        else:
            skipped.append(path)
    return reports, skipped


def aggregate_ops(reports: list[tuple[Path, dict]]) -> list[dict]:
    """Sum per-op rows across reports; ranked by total time, descending."""
    merged: dict[str, dict] = {}
    for _, report in reports:
        for row in report.get("ops", []):
            agg = merged.setdefault(
                row["name"],
                {"name": row["name"], "reports": 0,
                 **{k: 0 for k in _AGG_SUM}, **{k: 0 for k in _AGG_MAX}},
            )
            agg["reports"] += 1
            for key in _AGG_SUM:
                agg[key] += row.get(key, 0)
            for key in _AGG_MAX:
                agg[key] = max(agg[key], row.get(key, 0))
    return sorted(merged.values(), key=lambda r: r["total_s"], reverse=True)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024:
            return f"{n:.0f}{unit}"
        n /= 1024
    return f"{n:.1f}TB"


def format_table(rows: list[dict], top: int) -> str:
    total = sum(r["total_s"] for r in rows) or 1.0
    lines = [
        f"{'#':<3}{'op':<20}{'calls':>8}{'fwd_self_s':>12}{'bwd_s':>9}"
        f"{'total_s':>9}{'share':>7}{'peak':>9}",
    ]
    for rank, row in enumerate(rows[:top], 1):
        lines.append(
            f"{rank:<3}{row['name']:<20}{row['calls']:>8}"
            f"{row['forward_self_s']:>12.4f}{row['backward_s']:>9.4f}"
            f"{row['total_s']:>9.4f}{row['total_s'] / total:>7.1%}"
            f"{_fmt_bytes(row['peak_bytes']):>9}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="profile JSONs to mine (default: results/profile_*.json)",
    )
    parser.add_argument(
        "--results", type=Path, default=REPO / "results",
        help="directory searched for profile_*.json when no files given",
    )
    parser.add_argument("--top", type=int, default=10, metavar="K")
    parser.add_argument(
        "--per-file", action="store_true",
        help="also print each report's own top-3 ops",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="OUT",
        help="additionally write the aggregated ranking as JSON",
    )
    args = parser.parse_args(argv)

    paths = args.files or sorted(args.results.glob("profile_*.json"))
    if not paths:
        print(f"hotspots: no profile_*.json under {args.results}", file=sys.stderr)
        return 1
    reports, skipped = load_reports(paths)
    for path in skipped:
        print(f"hotspots: skipped {path} (not {PROFILE_SCHEMA})")
    if not reports:
        print("hotspots: no valid profile reports to mine", file=sys.stderr)
        return 1

    rows = aggregate_ops(reports)
    names = ", ".join(str(p.name) for p, _ in reports)
    print(f"hotspots: top {min(args.top, len(rows))} ops across "
          f"{len(reports)} report(s): {names}")
    print(format_table(rows, args.top))

    if args.per_file:
        for path, report in reports:
            per = sorted(
                report.get("ops", []), key=lambda r: r["total_s"], reverse=True
            )
            print(f"\n{path.name} (train {report.get('train_time_s', 0):.3f}s)")
            print(format_table(per, 3))

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(
                {"schema": "repro.hotspots/v1",
                 "reports": [str(p) for p, _ in reports],
                 "ops": rows[: args.top]},
                indent=2,
            ) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
