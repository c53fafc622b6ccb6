"""The observability subsystem: metrics, tracing, profiler, callbacks."""

import io
import json
import math

import numpy as np
import pytest

from repro.nn import Parameter
from repro.observe import (
    Callback,
    CallbackList,
    ConsoleLogger,
    JSONLLogger,
    MetricsLogger,
    MetricsRegistry,
    OpProfiler,
    Span,
    Timer,
    aggregate_spans,
    coverage,
    get_registry,
    profile_ops,
    read_run_log,
    set_registry,
    span,
    trace,
    validate_run_log,
)
from repro.observe import tracing
from repro.observe.callbacks import RUN_LOG_SCHEMA, SCHEMA_VERSION
from repro.tensor import Tensor
from repro.tensor import ops as _ops
from repro.training import TrainConfig, fit


class _Quadratic:
    """Minimal trainable model."""

    def __init__(self, start=5.0):
        self.w = Parameter(np.array(start))

    def parameters(self):
        return [self.w]

    def named_parameters(self):
        return [("w", self.w)]

    def state_dict(self):
        return {"w": self.w.data.copy()}

    def load_state_dict(self, state):
        self.w.data = state["w"].copy()

    def zero_grad(self):
        self.w.zero_grad()

    def train(self, mode=True):
        return self

    def eval(self):
        return self

    def loss(self, example):
        return self.w * self.w * float(example)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc()
        reg.counter("steps").inc(2.5)
        assert reg.counter("steps").value == pytest.approx(3.5)

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("steps").inc(-1)

    def test_gauge_moves_both_directions(self):
        reg = MetricsRegistry()
        reg.gauge("loss").set(2.0)
        reg.gauge("loss").set(0.5)
        assert reg.gauge("loss").value == 0.5

    def test_histogram_streaming_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.histogram("loss").observe(v)
        summary = reg.histogram("loss").summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["last"] == 2.0

    def test_empty_histogram_summary_is_json_safe(self):
        summary = MetricsRegistry().histogram("x").summary()
        assert summary["min"] is None and summary["mean"] is None
        json.dumps(summary)  # no inf/nan leaks

    def test_name_bound_to_one_type(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1.0}
        assert snap["gauges"] == {"b": 1.0}
        assert snap["histograms"]["c"]["count"] == 1

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.counter("a").value == 0.0

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestTracing:
    def test_span_is_noop_outside_trace(self):
        cm = span("anything")
        with cm as s:
            assert s is None
        # the shared null object, not a fresh recorder
        assert span("other") is cm

    def test_trace_builds_nested_tree(self):
        with trace("train") as root:
            with span("step"):
                with span("forward"):
                    pass
                with span("backward"):
                    pass
            with span("step"):
                pass
        assert [c.name for c in root.children] == ["step", "step"]
        assert [c.name for c in root.children[0].children] == ["forward", "backward"]
        assert root.duration_s >= root.child_seconds()

    def test_nested_trace_becomes_child_span(self):
        with trace("outer") as outer:
            with trace("inner"):
                with span("leaf"):
                    pass
        assert [c.name for c in outer.children] == ["inner"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]

    def test_aggregate_spans_paths_and_self_time(self):
        with trace("t") as root:
            for _ in range(3):
                with span("step"):
                    with span("fwd"):
                        pass
        rows = aggregate_spans(root)
        assert rows["t/step"]["calls"] == 3
        assert rows["t/step/fwd"]["calls"] == 3
        assert rows["t/step"]["self_s"] <= rows["t/step"]["total_s"]

    def test_coverage_fraction(self):
        root = Span("t", 0.0, 10.0)
        step = Span("step", 0.0, 4.0)
        step.children.append(Span("fwd", 0.0, 3.0))
        root.children.append(step)
        cov = coverage(root, "step")
        assert cov["calls"] == 1
        assert cov["total_s"] == pytest.approx(4.0)
        assert cov["accounted_s"] == pytest.approx(3.0)
        assert cov["fraction"] == pytest.approx(0.75)

    def test_coverage_without_matching_span(self):
        with trace("t") as root:
            pass
        assert coverage(root, "step")["fraction"] == 1.0

    def test_a_span_counts_the_cost_of_its_own_record(self, monkeypatch):
        """Building a span's record (and any garbage collection that
        allocation triggers) is the span's time, not time its parent
        cannot account for: here each record costs one clock tick."""
        clock = [0.0]

        class CostlySpan(Span):
            def __init__(self, *args, **kwargs):
                clock[0] += 1.0
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tracing, "Span", CostlySpan)
        monkeypatch.setattr(tracing.time, "perf_counter", lambda: clock[0])
        with trace("t") as root:
            with span("step"):
                with span("child"):
                    pass
        step = root.children[0]
        assert (step.duration_s, step.children[0].duration_s) == (2.0, 1.0)
        assert coverage(root, "step")["fraction"] == 0.5

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-example"])
    def test_a_traced_fit_accounts_for_its_steps(self, batched):
        """The spans of a traced ``fit`` cover at least 95% of every step,
        split into forward, backward and optimizer."""
        from repro.core import build_hap_embedder
        from repro.data import attach_degree_features, make_imdb_b_like
        from repro.models.classifier import GraphClassifier

        rng = np.random.default_rng(0)
        graphs = [attach_degree_features(g) for g in make_imdb_b_like(6, rng)]
        model = GraphClassifier(build_hap_embedder(16, 4, [3, 1], rng), 2, rng)
        config = TrainConfig(epochs=1, batch_size=3, batched=batched)
        with trace("train") as root:
            fit(model, graphs, rng, config)
        steps = coverage(root, "step")
        assert steps["calls"] == 2
        assert steps["fraction"] >= 0.95
        paths = set(aggregate_spans(root))
        for phase in ("forward", "backward", "optimizer"):
            assert f"train/epoch/step/{phase}" in paths

    def test_timer_accumulates_and_guards_misuse(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed_s
        with timer:
            pass
        assert timer.elapsed_s >= first
        with pytest.raises(RuntimeError):
            timer.stop()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()
        timer.stop()


class TestOpProfiler:
    def test_disabled_mode_leaves_tape_untouched(self):
        assert _ops._PROFILE_HOOK is None
        a = Tensor(np.ones(3), requires_grad=True)
        out = a + Tensor(np.ones(3))
        # the raw closure from ops.add, not a profiler wrapper
        assert "profiled_backward" not in out._backward.__qualname__
        assert "add" in out._backward.__qualname__

    def test_profiler_records_forward_and_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with profile_ops() as prof:
            assert _ops._PROFILE_HOOK is not None
            out = (a * 2.0).sum()
            assert "profiled_backward" in out._backward.__qualname__
            out.backward()
        assert _ops._PROFILE_HOOK is None
        stats = {row["name"]: row for row in prof.summary()}
        assert stats["mul"]["calls"] == 1
        assert stats["mul"]["backward_calls"] == 1
        assert stats["sum_along"]["calls"] == 1
        assert stats["mul"]["bytes_out"] == a.data.nbytes
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))

    def test_nested_ops_do_not_double_count_self_time(self):
        def min_along(a, axis):  # a composite: neg + max_along + neg
            return _ops.neg(_ops.max_along(_ops.neg(a), axis=axis))

        composite = _ops._instrumented("min_along", min_along)
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with profile_ops() as prof:
            composite(a, axis=1)
        stats = {row["name"]: row for row in prof.summary()}
        assert stats["neg"]["calls"] == 2 and stats["max_along"]["calls"] == 1
        assert stats["min_along"]["forward_self_s"] <= stats["min_along"]["forward_s"]
        total_self = sum(r["forward_self_s"] for r in prof.summary())
        total_wall = stats["min_along"]["forward_s"]
        assert total_self <= total_wall * 1.5  # self-times don't double count

    def test_second_install_rejected(self):
        with profile_ops():
            with pytest.raises(RuntimeError):
                OpProfiler().install()
        assert _ops._PROFILE_HOOK is None

    def test_results_identical_with_and_without_profiler(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4))
        a1 = Tensor(x.copy(), requires_grad=True)
        loss1 = (_ops.tanh(a1) @ a1.transpose()).sum()
        loss1.backward()
        a2 = Tensor(x.copy(), requires_grad=True)
        with profile_ops():
            loss2 = (_ops.tanh(a2) @ a2.transpose()).sum()
            loss2.backward()
        np.testing.assert_allclose(loss1.data, loss2.data)
        np.testing.assert_allclose(a1.grad, a2.grad)


class _Recorder(Callback):
    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def on_train_start(self, model, config):
        self.log.append((self.tag, "train_start"))

    def on_epoch_start(self, epoch):
        self.log.append((self.tag, "epoch_start", epoch))

    def on_batch_end(self, epoch, step, loss, batch_size):
        self.log.append((self.tag, "batch_end", epoch, step))

    def on_epoch_end(self, epoch, logs):
        self.log.append((self.tag, "epoch_end", epoch))

    def on_train_end(self, history):
        self.log.append((self.tag, "train_end"))


class TestCallbacks:
    def _fit(self, callbacks, epochs=2):
        model = _Quadratic()
        config = TrainConfig(epochs=epochs, batch_size=2)
        rng = np.random.default_rng(0)
        return fit(model, [1.0, 1.0, 1.0], rng, config, callbacks=callbacks)

    def test_event_sequence_per_epoch(self):
        log = []
        self._fit([_Recorder("a", log)], epochs=2)
        kinds = [entry[1] for entry in log]
        assert kinds == [
            "train_start",
            "epoch_start", "batch_end", "batch_end", "epoch_end",
            "epoch_start", "batch_end", "batch_end", "epoch_end",
            "train_end",
        ]

    def test_callbacks_fire_in_registration_order(self):
        log = []
        CallbackList([_Recorder("a", log), _Recorder("b", log)]).on_epoch_start(0)
        assert log == [("a", "epoch_start", 0), ("b", "epoch_start", 0)]

    def test_console_logger_format(self):
        stream = io.StringIO()
        ConsoleLogger(stream).on_epoch_end(3, {"loss": 0.5, "val_metric": 0.25})
        assert stream.getvalue() == "epoch   3  loss 0.5000  val 0.2500\n"

    def test_console_logger_handles_missing_val(self):
        stream = io.StringIO()
        ConsoleLogger(stream).on_epoch_end(0, {"loss": 1.0, "val_metric": None})
        assert "val nan" in stream.getvalue()

    def test_verbose_flag_deprecated_but_still_prints(self, capsys):
        """``TrainConfig.verbose`` is gone; ``ConsoleLogger`` prints."""
        with pytest.raises(TypeError):
            TrainConfig(verbose=True)
        self._fit([ConsoleLogger()], epochs=1)
        assert "epoch   0" in capsys.readouterr().out

    def test_metrics_logger_updates_registry(self):
        reg = MetricsRegistry()
        self._fit([MetricsLogger(reg)], epochs=2)
        snap = reg.snapshot()
        assert snap["counters"]["train/epochs"] == 2.0
        assert snap["counters"]["train/steps"] == 4.0
        assert snap["counters"]["train/examples"] == 6.0
        assert snap["histograms"]["train/batch_loss"]["count"] == 4
        assert math.isfinite(snap["gauges"]["train/loss"])


class TestRunLog:
    def _run(self, tmp_path, **kwargs):
        path = tmp_path / "run.jsonl"
        model = _Quadratic()
        fit(
            model,
            [1.0, 1.0],
            np.random.default_rng(0),
            TrainConfig(epochs=3, batch_size=2),
            callbacks=[JSONLLogger(path, **kwargs)],
        )
        return path

    def test_round_trip_validates(self, tmp_path):
        path = self._run(tmp_path)
        records = read_run_log(path)
        validate_run_log(records)  # raises on any schema violation
        assert records[0]["event"] == "train_start"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert [r["event"] for r in records[1:-1]] == ["epoch_end"] * 3
        assert records[-1]["event"] == "train_end"
        assert records[-1]["epochs_run"] == 3
        assert records[-1]["best_metric"] is None  # -inf never leaks into JSON

    def test_batch_events_opt_in(self, tmp_path):
        path = self._run(tmp_path, log_batches=True)
        records = read_run_log(path)
        validate_run_log(records)
        assert sum(r["event"] == "batch_end" for r in records) == 3

    def test_every_event_carries_schema_fields(self, tmp_path):
        for record in read_run_log(self._run(tmp_path)):
            for field in RUN_LOG_SCHEMA[record["event"]]:
                assert field in record, (record["event"], field)

    def test_validate_rejects_bad_logs(self):
        with pytest.raises(ValueError, match="empty"):
            validate_run_log([])
        with pytest.raises(ValueError, match="train_start"):
            validate_run_log([{"event": "epoch_end"}])
        header = {
            "event": "train_start", "schema": SCHEMA_VERSION, "time": 0.0,
            "epochs": 1, "lr": 0.01, "batch_size": 8, "batched": False,
            "num_parameters": 1,
        }
        with pytest.raises(ValueError, match="unknown event"):
            validate_run_log([header, {"event": "mystery"}])
        with pytest.raises(ValueError, match="missing fields"):
            validate_run_log([header, {"event": "epoch_end", "time": 0.0}])
        with pytest.raises(ValueError, match="schema"):
            validate_run_log([dict(header, schema="repro.runlog/v0")])


@pytest.mark.checkpoint
class TestCheckpointEvents:
    def test_on_checkpoint_reaches_every_logger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reg = MetricsRegistry()
        model = _Quadratic()
        fit(
            model,
            [1.0, 1.0],
            np.random.default_rng(0),
            TrainConfig(
                epochs=2, batch_size=2,
                checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=1,
            ),
            callbacks=[JSONLLogger(path, log_batches=True), MetricsLogger(reg)],
        )
        records = read_run_log(path)
        validate_run_log(records)  # checkpoint events satisfy the schema
        checkpoints = [r for r in records if r["event"] == "checkpoint"]
        # initial + one per step (2) + one per epoch boundary (2)
        assert len(checkpoints) == 5
        assert all(
            r["path"].endswith(".npz") and r["global_step"] >= 0
            for r in checkpoints
        )
        assert reg.snapshot()["counters"]["train/checkpoints"] == 5.0


class TestStitchRunLogs:
    HEADER = {
        "event": "train_start", "schema": SCHEMA_VERSION, "time": 0.0,
        "epochs": 2, "lr": 0.01, "batch_size": 2, "batched": False,
        "num_parameters": 1,
    }

    @staticmethod
    def _batch(epoch, step):
        return {"event": "batch_end", "time": 0.0, "epoch": epoch,
                "step": step, "loss": 1.0, "batch_size": 2}

    @staticmethod
    def _ckpt(epoch, step):
        return {"event": "checkpoint", "time": 0.0, "epoch": epoch,
                "step": step, "global_step": 0, "path": "x.npz"}

    def test_redone_work_from_the_crashed_run_is_dropped(self):
        from repro.observe import stitch_run_logs, validate_stitched_steps

        crashed = [
            self.HEADER,
            self._batch(0, 0), self._ckpt(0, 1),
            self._batch(0, 1),  # crashed here, after the step-1 checkpoint
        ]
        resumed = [
            dict(self.HEADER),
            self._batch(0, 1),  # redoes step 1 from the checkpoint
            {"event": "epoch_end", "time": 0.0, "epoch": 0, "loss": 1.0,
             "val_metric": None, "lr": 0.01, "epoch_time_s": 0.0},
            {"event": "train_end", "time": 0.0, "epochs_run": 1,
             "best_epoch": -1, "best_metric": None},
        ]
        stitched = stitch_run_logs(crashed, resumed)
        validate_run_log(stitched)
        validate_stitched_steps(stitched)
        events = [(r["event"], r.get("step")) for r in stitched]
        assert events == [
            ("train_start", None),
            ("batch_end", 0), ("checkpoint", 1),
            ("batch_end", 1), ("epoch_end", None), ("train_end", None),
        ]

    def test_duplicated_and_skipped_steps_are_caught(self):
        from repro.observe import validate_stitched_steps

        base = [self.HEADER, self._batch(0, 0), self._batch(0, 1)]
        validate_stitched_steps(base)
        with pytest.raises(ValueError, match="duplicated or skipped"):
            validate_stitched_steps(base + [self._batch(0, 1)])
        with pytest.raises(ValueError, match="duplicated or skipped"):
            validate_stitched_steps([self.HEADER, self._batch(0, 0),
                                     self._batch(0, 2)])
        with pytest.raises(ValueError, match="non-contiguous epochs"):
            validate_stitched_steps([self.HEADER, self._batch(0, 0),
                                     self._batch(2, 0)])
        with pytest.raises(ValueError, match="no batch_end"):
            validate_stitched_steps([self.HEADER])
