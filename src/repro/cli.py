"""Command-line interface.

Runs the three downstream tasks and dataset statistics from the shell:

    python -m repro stats
    python -m repro classify --method HAP --dataset MUTAG --epochs 50
    python -m repro regress --dataset ESOL --epochs 30
    python -m repro match --method GMN-HAP --nodes 30
    python -m repro similarity --method HAP --dataset AIDS
    python -m repro classify --method HAP --dataset MUTAG --save model.npz
    python -m repro classify --checkpoint-dir runs/mutag --checkpoint-every 10
    python -m repro classify --checkpoint-dir runs/mutag --resume auto
    python -m repro crossval --method HAP --dataset MUTAG --workers 4
    python -m repro crossval --dataset ESOL --folds 5
    python -m repro serve --method HAP --dataset IMDB-B --requests 200
    python -m repro query --weights model.npz --mode top_k --k 3
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.data.datasets import DATASET_BUILDERS, dataset_task
from repro.evaluation.harness import (
    dataset_statistics_all,
    prepare_dataset,
    run_classification,
    run_matching,
    run_regression,
    run_similarity,
)
from repro.models import zoo
from repro.nn import load_module, save_module


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="HAP", help="model name (see repro.models.zoo)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument(
        "--verbose", action="store_true", help="print one line per training epoch"
    )
    parser.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="write a structured JSONL run log (docs/observability.md)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="write repro.ckpt/v1 training checkpoints (docs/checkpointing.md)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="STEPS",
        help="also checkpoint every N optimizer steps (0: epoch boundaries only)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="CKPT",
        help="resume training from a checkpoint file, or from the newest "
        "checkpoint in --checkpoint-dir with --resume auto",
    )


def _train_kwargs(args):
    """Checkpoint/resume passthrough kwargs from the common CLI flags."""
    resume = getattr(args, "resume", None)
    if resume == "auto":
        from repro.training import CheckpointManager

        if not getattr(args, "checkpoint_dir", None):
            raise SystemExit("--resume auto requires --checkpoint-dir")
        resume = CheckpointManager(args.checkpoint_dir).latest()
        if resume is None:
            raise SystemExit(
                f"--resume auto: no checkpoint found in {args.checkpoint_dir}"
            )
    return {
        "checkpoint_dir": getattr(args, "checkpoint_dir", None),
        "checkpoint_every": getattr(args, "checkpoint_every", 0),
        "resume": resume,
    }


def _callbacks(args):
    """Build the trainer callback list from the common CLI flags."""
    from repro.observe import ConsoleLogger, JSONLLogger

    callbacks = []
    if getattr(args, "verbose", False):
        callbacks.append(ConsoleLogger())
    if getattr(args, "log_json", None):
        callbacks.append(JSONLLogger(args.log_json))
    return callbacks or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HAP reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print Table 2 dataset statistics")
    stats.add_argument("--num-graphs", type=int, default=100)
    stats.add_argument("--seed", type=int, default=0)

    classify = sub.add_parser("classify", help="graph classification (Table 3)")
    _add_common(classify)
    classify.add_argument(
        "--dataset", default="MUTAG", choices=[n for n, v in DATASET_BUILDERS.items() if v[2]]
    )
    classify.add_argument("--num-graphs", type=int, default=120)
    classify.add_argument("--save", default=None, help="save trained weights (.npz)")

    regress = sub.add_parser(
        "regress", help="molecular property regression (docs/molecular.md)"
    )
    _add_common(regress)
    regress.add_argument(
        "--dataset",
        default="ESOL",
        choices=[n for n, v in DATASET_BUILDERS.items() if v[2] == 0],
    )
    regress.add_argument("--num-graphs", type=int, default=150)
    regress.add_argument(
        "--conv",
        default="gin",
        choices=["gin", "sage", "gat"],
        help="edge-aware message-passing layer (GCN cannot condition "
        "on bond types)",
    )
    regress.add_argument("--save", default=None, help="save trained weights (.npz)")

    match = sub.add_parser("match", help="graph matching (Table 4)")
    _add_common(match)
    match.add_argument("--nodes", type=int, default=20)
    match.add_argument("--pairs", type=int, default=100)

    similarity = sub.add_parser("similarity", help="graph similarity (Fig. 5)")
    _add_common(similarity)
    similarity.add_argument("--dataset", default="AIDS", choices=["AIDS", "LINUX"])
    similarity.add_argument("--pool-size", type=int, default=14)
    similarity.add_argument("--triplets", type=int, default=80)

    crossval = sub.add_parser(
        "crossval", help="k-fold cross-validated classification/regression"
    )
    _add_common(crossval)
    crossval.add_argument(
        "--dataset",
        default="MUTAG",
        choices=[n for n, v in DATASET_BUILDERS.items() if v[2] is not None],
    )
    crossval.add_argument("--folds", type=int, default=5)
    crossval.add_argument("--num-graphs", type=int, default=120)
    crossval.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="train folds in N parallel worker processes (0: auto-detect "
        "cores); results are identical to serial (docs/parallelism.md)",
    )
    crossval.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk dataset cache shared by the workers (repro.data.cache)",
    )
    crossval.add_argument(
        "--run-log-dir",
        default=None,
        metavar="DIR",
        help="write one JSONL run-log per fold plus a merged.jsonl",
    )
    crossval.add_argument(
        "--shard-dir",
        default=None,
        metavar="DIR",
        help="shard the dataset on disk under DIR and stream it with "
        "bounded memory instead of materialising it per worker "
        "(docs/streaming.md); results are identical to in-memory",
    )
    crossval.add_argument(
        "--shard-size",
        type=int,
        default=256,
        metavar="N",
        help="graphs per shard file when --shard-dir is set",
    )

    serve = sub.add_parser(
        "serve", help="micro-batched inference load test (docs/serving.md)"
    )
    _add_serving_model(serve)
    serve.add_argument(
        "--kind", default="classify", choices=["classify", "embed", "top_k"]
    )
    serve.add_argument("--clients", type=int, default=4)
    serve.add_argument("--requests", type=int, default=100, help="total request count")
    serve.add_argument("--batch-size", type=int, default=16)
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--k", type=int, default=5, help="neighbours per top_k request")

    query = sub.add_parser(
        "query", help="one-shot classify/embed/top-k through the service"
    )
    _add_serving_model(query)
    query.add_argument(
        "--mode", default="classify", choices=["classify", "embed", "top_k"]
    )
    query.add_argument(
        "--index", type=int, default=0, help="which dataset graph to query"
    )
    query.add_argument("--k", type=int, default=3, help="neighbours for --mode top_k")

    return parser


def _add_serving_model(parser: argparse.ArgumentParser) -> None:
    """Model/dataset flags shared by the ``serve`` and ``query`` commands."""
    parser.add_argument("--method", default="HAP", help="model name (see repro.models.zoo)")
    parser.add_argument(
        "--dataset",
        default="IMDB-B",
        choices=[n for n, v in DATASET_BUILDERS.items() if v[2]],
    )
    parser.add_argument("--num-graphs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument(
        "--weights",
        default=None,
        metavar="PATH",
        help="serve weights saved by `classify --save` (default: untrained)",
    )


def _serving_model(args):
    """``(graphs, model)`` for the serve/query commands."""
    graphs, dim, num_classes = prepare_dataset(
        args.dataset, args.num_graphs, np.random.default_rng(args.seed)
    )
    model = zoo.make_classifier(
        args.method, dim, num_classes, np.random.default_rng(args.seed),
        hidden=args.hidden,
    )
    if args.weights:
        load_module(model, args.weights)
    model.eval()
    return graphs, model


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "stats":
        for row in dataset_statistics_all(args.num_graphs, args.seed):
            classes = row["num_classes"] if row["num_classes"] is not None else "-"
            print(
                f"{row['dataset']:<10} graphs={row['num_graphs']:<5} "
                f"max|V|={row['max_nodes']:<4} avg|V|={row['avg_nodes']:<6.1f} "
                f"classes={classes}"
            )
        return 0

    if args.command == "classify":
        result = run_classification(
            args.method,
            args.dataset,
            seed=args.seed,
            num_graphs=args.num_graphs,
            epochs=args.epochs,
            hidden=args.hidden,
            lr=args.lr,
            callbacks=_callbacks(args),
            **_train_kwargs(args),
        )
        print(f"{args.method} on {args.dataset}: test accuracy {result.accuracy:.2%}")
        if args.save:
            save_module(
                result.model,
                args.save,
                metadata={"method": args.method, "dataset": args.dataset},
            )
            print(f"saved weights to {args.save}")
        return 0

    if args.command == "regress":
        result = run_regression(
            args.method,
            args.dataset,
            seed=args.seed,
            num_graphs=args.num_graphs,
            epochs=args.epochs,
            hidden=args.hidden,
            lr=args.lr,
            conv=args.conv,
            callbacks=_callbacks(args),
            **_train_kwargs(args),
        )
        print(
            f"{args.method} on {args.dataset}: test RMSE {result.rmse:.4f}, "
            f"MAE {result.mae:.4f} "
            f"(mean-predictor baseline RMSE {result.baseline_rmse:.4f})"
        )
        if args.save:
            save_module(
                result.model,
                args.save,
                metadata={"method": args.method, "dataset": args.dataset},
            )
            print(f"saved weights to {args.save}")
        return 0

    if args.command == "match":
        accuracy = run_matching(
            args.method,
            num_nodes=args.nodes,
            seed=args.seed,
            num_pairs=args.pairs,
            epochs=args.epochs,
            hidden=args.hidden,
            lr=args.lr,
            callbacks=_callbacks(args),
            **_train_kwargs(args),
        )
        print(
            f"{args.method} matching at |V|={args.nodes}: "
            f"test accuracy {accuracy:.2%}"
        )
        return 0

    if args.command == "similarity":
        accuracy = run_similarity(
            args.method,
            args.dataset,
            seed=args.seed,
            pool_size=args.pool_size,
            num_triplets=args.triplets,
            epochs=args.epochs,
            hidden=args.hidden,
            lr=args.lr,
            callbacks=_callbacks(args),
            **_train_kwargs(args),
        )
        print(
            f"{args.method} similarity on {args.dataset}: "
            f"triplet accuracy {accuracy:.2%}"
        )
        return 0

    if args.command == "crossval":
        from repro.evaluation import (
            cross_validate_classification,
            cross_validate_regression,
        )

        common = dict(
            folds=args.folds,
            seed=args.seed,
            num_graphs=args.num_graphs,
            epochs=args.epochs,
            hidden=args.hidden,
            lr=args.lr,
            n_workers=args.workers if args.workers > 0 else None,
            cache_dir=args.cache_dir,
            run_log_dir=args.run_log_dir,
        )
        if dataset_task(args.dataset) == "regression":
            if args.shard_dir:
                raise SystemExit(
                    "regression cross-validation does not support --shard-dir"
                )
            result = cross_validate_regression(args.method, args.dataset, **common)
        else:
            result = cross_validate_classification(
                args.method,
                args.dataset,
                shard_dir=args.shard_dir,
                shard_size=args.shard_size,
                **common,
            )
        print(result)
        run = result.pool_run
        if run.n_workers > 1:
            print(
                f"{run.n_workers} workers: wall {run.wall_time_s:.2f}s, "
                f"busy {run.busy_time_s:.2f}s, "
                f"efficiency {run.efficiency:.0%}"
            )
        return 0

    if args.command == "serve":
        from repro.serve import InferenceService, run_closed_loop

        graphs, model = _serving_model(args)
        with InferenceService(
            model,
            max_batch_size=args.batch_size,
            cache_size=args.cache_size,
        ) as service:
            if args.kind == "top_k":
                for i, graph in enumerate(graphs):
                    service.add_to_index(i, graph)
            report = run_closed_loop(
                service,
                graphs,
                kind=args.kind,
                clients=args.clients,
                requests_per_client=max(1, args.requests // args.clients),
                k=args.k,
            )
        print(
            f"{args.method} on {args.dataset}: served {report.requests} "
            f"{args.kind} requests from {report.clients} clients "
            f"({report.errors} errors)"
        )
        print(
            f"throughput {report.throughput_rps:.1f} req/s, "
            f"p50 {report.p50_s * 1e3:.2f} ms, p99 {report.p99_s * 1e3:.2f} ms"
        )
        print(
            f"batches {report.batches} (mean size {report.mean_batch_size:.1f}), "
            f"cache hit rate {report.cache_hit_rate:.0%}"
        )
        return 0

    if args.command == "query":
        from repro.serve import InferenceService

        graphs, model = _serving_model(args)
        graph = graphs[args.index % len(graphs)]
        with InferenceService(model) as service:
            if args.mode == "classify":
                print(f"graph {args.index}: predicted class {service.classify(graph)}")
            elif args.mode == "embed":
                result = service.embed(graph)
                print(
                    f"graph {args.index}: {result.dim}-d embedding "
                    f"({result.schema}), graph {result.graph_hash[:12]}…, "
                    f"model {result.model_fingerprint[:12]}…"
                )
            else:
                for i, candidate in enumerate(graphs):
                    service.add_to_index(i, candidate)
                for neighbor in service.top_k(graph, args.k):
                    print(
                        f"graph {args.index} ~ graph {neighbor.key}: "
                        f"distance {neighbor.distance:.4f}"
                    )
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
