"""Task metrics.

Accuracy definitions follow the paper: label accuracy for
classification (Table 3), match/no-match accuracy for pairs (Table 4),
and sign agreement of the relative distance for triplets (Fig. 5) —
the same criterion applied to the conventional GED baselines ("the
triplet similarity ... is reflected by whether the relative GED is
positive or negative").
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Sequence

import numpy as np

from repro.data.matching import MatchingPair
from repro.data.triplets import GraphTriplet
from repro.graph.graph import Graph

#: graphs per ``model.predict`` call when scoring a classifier or
#: regressor: each call is one ragged batch, whose slot contractions take
#: ``B · N_max · K``, so the chunk bounds its memory whatever the size of
#: the evaluated set
EVAL_CHUNK = 32


def _chunks(graphs: Sequence[Graph]):
    """``graphs`` as consecutive lists of at most :data:`EVAL_CHUNK`."""
    if not graphs:
        raise ValueError("no graphs to evaluate")
    remaining = iter(graphs)
    while chunk := list(islice(remaining, EVAL_CHUNK)):
        yield chunk


def classification_accuracy(model, graphs: Sequence[Graph]) -> float:
    """Fraction of graphs whose label the classifier predicts correctly,
    predicted :data:`EVAL_CHUNK` graphs per batched ``model.predict``."""
    correct = sum(
        int(np.sum(model.predict(chunk) == np.array([g.label for g in chunk])))
        for chunk in _chunks(graphs)
    )
    return correct / len(graphs)


def _regression_errors(model, graphs: Sequence[Graph]) -> np.ndarray:
    errors = [
        np.asarray(model.predict(chunk), dtype=np.float64)
        - np.array([float(g.label) for g in chunk], dtype=np.float64)
        for chunk in _chunks(graphs)
    ]
    return np.concatenate(errors)


def regression_rmse(model, graphs: Sequence[Graph]) -> float:
    """Root-mean-squared error of a regression model's predictions
    (lower is better — pair with ``TrainConfig(metric_mode="min")``)."""
    errors = _regression_errors(model, graphs)
    return float(np.sqrt(np.mean(errors**2)))


def regression_mae(model, graphs: Sequence[Graph]) -> float:
    """Mean absolute error of a regression model's predictions."""
    return float(np.mean(np.abs(_regression_errors(model, graphs))))


def matching_accuracy(model, pairs: Sequence[MatchingPair]) -> float:
    """Fraction of pairs classified correctly as matching/non-matching."""
    if not pairs:
        raise ValueError("no pairs to evaluate")
    correct = sum(1 for p in pairs if model.predict(p) == p.label)
    return correct / len(pairs)


def triplet_accuracy(
    predict_closer_to_right: Callable[[GraphTriplet], bool],
    triplets: Sequence[GraphTriplet],
) -> float:
    """Sign-agreement accuracy over triplets.

    ``predict_closer_to_right`` is any callable (a SimilarityModel /
    SimGNN method, or a wrapper around a conventional GED algorithm)
    returning True when the anchor is judged closer to the right graph.
    Ties in the ground truth (relative GED exactly 0) are skipped, as
    neither answer is wrong.
    """
    decided = [t for t in triplets if t.relative_ged != 0]
    if not decided:
        raise ValueError("all triplets are ties; nothing to evaluate")
    correct = sum(
        1 for t in decided if predict_closer_to_right(t) == t.closer_to_right
    )
    return correct / len(decided)
