"""Design-choice ablations called out in DESIGN.md §4.

Not a paper table — these benches isolate the implementation decisions
of this reproduction:

1. MOA relaxation ψ: permutation-invariant projection (default) vs the
   paper's literal zero-pad/truncate;
2. Gumbel-Softmax soft sampling: on (τ = 0.1, the paper's setting) vs
   off vs a warm τ = 1.0 — also reports the edge density of the sampled
   coarse adjacency;
3. hierarchical similarity loss (Eq. 23 over all K levels) vs the final
   level only.
"""

import numpy as np

from conftest import persist_rows, run_once
from repro.core import GraphCoarsening
from repro.evaluation.harness import format_table, run_classification, run_matching
from repro.graph import random_connected
from repro.tensor import Tensor


def test_ablation_moa_relaxation(benchmark, profile):
    def experiment():
        rows = {}
        for name, relaxation in [("MOA-project", "project"), ("MOA-pad", "pad")]:
            rows[name] = {
                "MUTAG": run_classification(
                    "HAP",
                    "MUTAG",
                    seed=0,
                    num_graphs=profile["num_graphs"],
                    epochs=profile["epochs_hard"],
                    hidden=profile["hidden"],
                    relaxation=relaxation,
                ).accuracy,
                "|V|=20": run_matching(
                    "HAP",
                    num_nodes=20,
                    seed=0,
                    num_pairs=profile["match_pairs"],
                    epochs=profile["match_epochs"],
                    hidden=profile["hidden"],
                    relaxation=relaxation,
                ),
            }
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, ["MUTAG", "|V|=20"], "Ablation: MOA relaxation ψ"))
    benchmark.extra_info["rows"] = rows
    persist_rows("ablation_moa_relaxation", rows)


def test_ablation_soft_sampling(benchmark, profile):
    def experiment():
        rows = {}
        for name, kwargs in [
            ("tau=0.1 (paper)", {"soft_sampling": True, "tau": 0.1}),
            ("tau=1.0", {"soft_sampling": True, "tau": 1.0}),
            ("no sampling", {"soft_sampling": False}),
        ]:
            rows[name] = {
                "|V|=20": run_matching(
                    "HAP",
                    num_nodes=20,
                    seed=0,
                    num_pairs=profile["match_pairs"],
                    epochs=profile["match_epochs"],
                    hidden=profile["hidden"],
                    **kwargs,
                )
            }
            # Edge density of the coarsened adjacency under each setting.
            rng = np.random.default_rng(0)
            g = random_connected(20, 0.3, rng)
            module = GraphCoarsening(4, 6, rng, **kwargs)
            module.eval()
            adj, _, _ = module(g.adjacency, Tensor(rng.normal(size=(20, 4))))
            strong = (adj.data > adj.data.mean()).mean()
            rows[name]["density"] = float(strong)
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            rows,
            ["|V|=20", "density"],
            "Ablation: Gumbel-Softmax soft sampling (Eq. 19)",
        )
    )
    benchmark.extra_info["rows"] = rows
    persist_rows("ablation_soft_sampling", rows)


def test_ablation_hierarchical_loss(benchmark, profile):
    def experiment():
        rows = {}
        for name, hierarchical in [("all levels (Eq.23)", True), ("final level", False)]:
            rows[name] = {
                f"|V|={size}": run_matching(
                    "HAP",
                    num_nodes=size,
                    seed=0,
                    num_pairs=profile["match_pairs"],
                    epochs=profile["match_epochs"],
                    hidden=profile["hidden"],
                    hierarchical=hierarchical,
                )
                for size in (20, 40)
            }
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            rows, ["|V|=20", "|V|=40"], "Ablation: hierarchical similarity loss"
        )
    )
    benchmark.extra_info["rows"] = rows
    persist_rows("ablation_hierarchical_loss", rows)
