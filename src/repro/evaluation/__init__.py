"""Evaluation utilities: t-SNE, cluster separability, experiment harness."""

from repro.evaluation.tsne import tsne
from repro.evaluation.separability import silhouette_score
from repro.evaluation.crossval import (
    CVResult,
    FoldTask,
    RegressionCVResult,
    cross_validate_classification,
    cross_validate_regression,
    make_fold_tasks,
)
from repro.evaluation.reports import load_rows, save_rows, to_markdown
from repro.evaluation.harness import (
    ClassificationResult,
    RegressionResult,
    format_table,
    run_classification,
    run_matching,
    run_regression,
    run_similarity,
    run_tsne_study,
)

__all__ = [
    "tsne",
    "silhouette_score",
    "CVResult",
    "FoldTask",
    "RegressionCVResult",
    "cross_validate_classification",
    "cross_validate_regression",
    "make_fold_tasks",
    "load_rows",
    "save_rows",
    "to_markdown",
    "ClassificationResult",
    "RegressionResult",
    "format_table",
    "run_classification",
    "run_matching",
    "run_regression",
    "run_similarity",
    "run_tsne_study",
]
