"""Observability: metrics, tracing, op-level profiling and run logging.

This subpackage is the instrumentation layer of the reproduction
(docs/observability.md).  It has four parts, all designed around the
same rule — *near-zero overhead when disabled*:

``repro.observe.metrics``
    A process-local registry of counters, gauges and histograms.
``repro.observe.tracing``
    Nesting wall-time spans (``trace`` / ``span``) plus aggregation
    helpers that turn a span tree into a per-module time breakdown.
    ``span()`` is a no-op unless a ``trace()`` is active.
``repro.observe.profiler``
    Op-level profiling hooks for the autograd engine: per-op call
    counts, forward/backward wall time and output array bytes.  Nothing
    is recorded (and backward closures are left untouched) unless an
    :class:`OpProfiler` is installed.
``repro.observe.callbacks``
    The trainer's event API (``on_train_start`` … ``on_train_end``)
    with ready-made ``ConsoleLogger`` / ``JSONLLogger`` /
    ``MetricsLogger`` callbacks and the JSONL run-log schema.
"""

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    set_registry,
)
from repro.observe.tracing import (
    Span,
    Timer,
    aggregate_spans,
    coverage,
    span,
    trace,
)
from repro.observe.profiler import OpProfiler, OpStat, profile_ops
from repro.observe.callbacks import (
    Callback,
    CallbackList,
    ConsoleLogger,
    JSONLLogger,
    MetricsLogger,
    RUN_LOG_SCHEMA,
    read_run_log,
    stitch_run_logs,
    validate_run_log,
    validate_stitched_steps,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "set_registry",
    "Span",
    "Timer",
    "aggregate_spans",
    "coverage",
    "span",
    "trace",
    "OpProfiler",
    "OpStat",
    "profile_ops",
    "Callback",
    "CallbackList",
    "ConsoleLogger",
    "JSONLLogger",
    "MetricsLogger",
    "RUN_LOG_SCHEMA",
    "read_run_log",
    "stitch_run_logs",
    "validate_run_log",
    "validate_stitched_steps",
]
