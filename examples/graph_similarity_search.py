"""Graph similarity search over a molecule database.

The graph-similarity-learning scenario (paper Sec. 6.4): given a query
molecule, rank a database by similarity.  Ground truth is exact graph
edit distance (A*); we compare three rankers:

1. the Hungarian bipartite GED approximation (no learning);
2. a HAP similarity model trained on GED-labelled triplets;
3. raw untrained HAP embeddings (sanity floor).

Quality is measured with precision@k against the exact-GED ranking.

    python examples/graph_similarity_search.py
"""

import numpy as np

from repro.data.datasets import make_aids_like
from repro.data.encoding import attach_label_features
from repro.data.datasets import NUM_ATOM_TYPES
from repro.data.triplets import TripletGenerator
from repro.ged import hungarian_ged
from repro.models import zoo
from repro.models.common import graph_inputs
from repro.tensor import no_grad
from repro.training import TrainConfig, fit


def precision_at_k(predicted_order, true_order, k=5) -> float:
    return len(set(predicted_order[:k]) & set(true_order[:k])) / k


def main() -> None:
    rng = np.random.default_rng(11)
    database = make_aids_like(20, rng)
    query = database[0]
    candidates = list(range(1, len(database)))

    generator = TripletGenerator(database)
    exact_ranking = sorted(candidates, key=lambda i: generator.proximity(0, i))
    print(f"database: {len(database)} molecules (<= 10 atoms each)")

    # --- Ranker 1: classical bipartite GED (no training).
    hungarian_ranking = sorted(
        candidates, key=lambda i: hungarian_ged(query, database[i])
    )

    # --- Ranker 2: HAP similarity model trained on GED triplets.
    featured = [attach_label_features(g, NUM_ATOM_TYPES) for g in database]
    index_of = {id(g): i for i, g in enumerate(database)}
    triplets = generator.sample(150, rng)
    featured_triplets = [
        type(t)(
            featured[index_of[id(t.anchor)]],
            featured[index_of[id(t.left)]],
            featured[index_of[id(t.right)]],
            t.relative_ged,
        )
        for t in triplets
    ]
    model = zoo.make_similarity("HAP", NUM_ATOM_TYPES, rng, hidden=16,
                                cluster_sizes=(4, 1))

    def rank_with_model(m):
        with no_grad():
            query_emb = m.embedder(*graph_inputs(featured[0])[:2]).data
            embs = [
                m.embedder(*graph_inputs(featured[i])[:2]).data for i in candidates
            ]
        dists = [float(np.linalg.norm(query_emb - e)) for e in embs]
        return [c for _, c in sorted(zip(dists, candidates))]

    untrained_ranking = rank_with_model(model)
    fit(model, featured_triplets, rng, TrainConfig(epochs=12, lr=0.005))
    trained_ranking = rank_with_model(model)

    print(f"{'ranker':<22} {'precision@5 vs exact GED':>26}")
    for name, ranking in [
        ("Hungarian GED", hungarian_ranking),
        ("HAP (trained)", trained_ranking),
        ("HAP (untrained)", untrained_ranking),
    ]:
        print(f"{name:<22} {precision_at_k(ranking, exact_ranking):>26.2f}")
    print("\nexact-GED top-5:      ", exact_ranking[:5])
    print("trained-HAP top-5:    ", trained_ranking[:5])


if __name__ == "__main__":
    main()
