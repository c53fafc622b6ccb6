"""Render results/*.json into Markdown tables for EXPERIMENTS.md.

Each paper benchmark persists its row dictionary to
``results/<name>.json`` (the ``bench``-marked floors write theirs to the
git-ignored ``benchmarks/out/``); this tool turns every file into a
Markdown table so the measured side of EXPERIMENTS.md is regenerable:

    python tools/render_experiments.py            # print all tables
    python tools/render_experiments.py table3     # one experiment
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.evaluation.reports import load_rows, to_markdown

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def render_file(path: Path) -> str:
    title, rows = load_rows(path)
    if not isinstance(rows, dict) or not rows:
        return f"## {title}\n\n(no rows)"
    first = next(iter(rows.values()))
    if not isinstance(first, dict):
        return f"## {title}\n\n(unstructured payload; see {path.name})"
    columns = sorted({c for values in rows.values() for c in values})
    percent = all(
        isinstance(v, (int, float)) and 0.0 <= v <= 1.0
        for values in rows.values()
        for v in values.values()
    )
    table = to_markdown(rows, columns, percent=percent)
    return f"## {title}\n\n{table}"


def main(argv: list[str]) -> int:
    if not RESULTS_DIR.is_dir():
        print("no results/ directory; run the benchmarks first", file=sys.stderr)
        return 1
    pattern = argv[0] if argv else ""
    paths = sorted(RESULTS_DIR.glob("*.json"))
    selected = [p for p in paths if pattern in p.stem]
    if not selected:
        print(f"no results match {pattern!r}", file=sys.stderr)
        return 1
    print("\n\n".join(render_file(p) for p in selected))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
