"""Property tests for the ``repro.ckpt/v1`` format.

Arbitrary module/optimizer states must survive save→load *exactly*
(values, dtypes, shapes, scalar counters), and ``load_checkpoint`` must
reject damaged archives — truncated, byte-flipped, written by a future
format version or for another optimizer — with clear errors instead of
silently loading partial state.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from tests.faults import flip_bytes, truncate_file
from repro.training import checkpoint as ckpt
from repro.training import load_checkpoint, read_checkpoint_header, save_checkpoint

pytestmark = pytest.mark.checkpoint


class ArbitraryModule(Module):
    """A module with parameters of arbitrary shapes and values."""

    def __init__(self, arrays):
        super().__init__()
        for i, array in enumerate(arrays):
            setattr(self, f"p{i}", Parameter(array.copy(), name=f"p{i}"))


# float64 values across the full range, including signed zeros,
# subnormals and infinities (bitwise round-trip must keep them all)
finite_or_inf = st.floats(
    allow_nan=False, allow_infinity=True, allow_subnormal=True, width=64
)
shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@st.composite
def parameter_arrays(draw):
    count = draw(st.integers(1, 4))
    arrays = []
    for _ in range(count):
        shape = draw(shapes)
        flat = draw(
            st.lists(
                finite_or_inf,
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        arrays.append(np.array(flat, dtype=np.float64).reshape(shape))
    return arrays


def _roundtrip(**kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.npz"
        save_checkpoint(path, **kwargs)
        return load_checkpoint(
            path,
            model=kwargs.get("reload_model"),
            optimizer=kwargs.get("reload_optimizer"),
        )


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(arrays=parameter_arrays(), seed=st.integers(0, 2**32 - 1))
    def test_module_and_adam_state_survive_exactly(self, arrays, seed):
        rng = np.random.default_rng(seed)
        model = ArbitraryModule(arrays)
        optimizer = Adam(model.parameters(), lr=0.01)
        # give the moments non-trivial values via a synthetic step
        for param in optimizer.parameters:
            param.grad = rng.normal(size=param.data.shape)
        optimizer.step()

        clone = ArbitraryModule([np.zeros_like(a) for a in arrays])
        clone_opt = Adam(clone.parameters(), lr=0.5)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.npz"
            save_checkpoint(path, model=model, optimizer=optimizer, rng=rng)
            load_checkpoint(path, model=clone, optimizer=clone_opt, rng=rng)

        for (name, a), (_, b) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert a.data.dtype == b.data.dtype, name
            assert a.data.shape == b.data.shape, name
            assert a.data.tobytes() == b.data.tobytes(), name
        assert clone_opt.lr == optimizer.lr
        assert clone_opt._step == optimizer._step
        for slot in ("_m", "_v"):
            for a, b in zip(getattr(optimizer, slot), getattr(clone_opt, slot)):
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        epoch=st.integers(0, 10_000),
        step=st.integers(0, 10_000),
        global_step=st.integers(0, 10**9),
        epoch_loss=finite_or_inf,
        best_metric=finite_or_inf,
        losses=st.lists(finite_or_inf, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_counters_survive_exactly(
        self, epoch, step, global_step, epoch_loss, best_metric, losses, seed
    ):
        rng = np.random.default_rng(seed)
        model = ArbitraryModule([np.ones(2)])
        optimizer = Adam(model.parameters(), lr=0.1)
        rng.normal(size=7)  # advance past the seed state
        rng_state_before = rng.bit_generator.state
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.npz"
            save_checkpoint(
                path,
                model=model,
                optimizer=optimizer,
                rng=rng,
                epoch=epoch,
                step=step,
                global_step=global_step,
                epoch_loss=epoch_loss,
                best_metric=best_metric,
                losses=losses,
            )
            rng.normal(size=3)  # perturb, then restore from the archive
            state = load_checkpoint(path, rng=rng)
        assert (state.epoch, state.step) == (epoch, step)
        assert state.global_step == global_step
        # floats round-trip bitwise through the JSON header (repr-exact)
        assert np.float64(state.epoch_loss).tobytes() == np.float64(
            epoch_loss
        ).tobytes()
        assert np.float64(state.best_metric).tobytes() == np.float64(
            best_metric
        ).tobytes()
        assert state.losses == [float(x) for x in losses]
        assert rng.bit_generator.state == rng_state_before

    def test_order_and_best_state_roundtrip(self, rng, tmp_path):
        model = ArbitraryModule([np.arange(6, dtype=np.float64)])
        optimizer = Adam(model.parameters(), lr=0.1)
        order = rng.permutation(17)
        best = {"p0": rng.normal(size=6)}
        path = tmp_path / "state.npz"
        save_checkpoint(
            path, model=model, optimizer=optimizer, rng=rng,
            order=order, best_state=best,
        )
        state = load_checkpoint(path)
        assert state.order.dtype == np.int64
        assert list(state.order) == list(order)
        assert state.best_state["p0"].tobytes() == best["p0"].tobytes()


class TestRejection:
    def _valid_checkpoint(self, tmp):
        rng = np.random.default_rng(7)
        model = ArbitraryModule([rng.normal(size=(3, 2)), rng.normal(size=4)])
        optimizer = Adam(model.parameters(), lr=0.01)
        path = Path(tmp) / "state.npz"
        save_checkpoint(path, model=model, optimizer=optimizer, rng=rng)
        return path, model, optimizer

    @settings(max_examples=20, deadline=None)
    @given(fraction=st.floats(0.0, 0.95))
    def test_truncated_archives_are_rejected(self, fraction):
        with tempfile.TemporaryDirectory() as tmp:
            path, model, optimizer = self._valid_checkpoint(tmp)
            truncate_file(path, int(len(path.read_bytes()) * fraction))
            with pytest.raises(ValueError, match="corrupted|not a repro"):
                load_checkpoint(path, model=model, optimizer=optimizer)

    @settings(max_examples=20, deadline=None)
    @given(offsets=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_byte_flips_never_load_silently(self, offsets):
        with tempfile.TemporaryDirectory() as tmp:
            path, model, optimizer = self._valid_checkpoint(tmp)
            reference = {
                name: p.data.copy() for name, p in model.named_parameters()
            }
            flip_bytes(path, offsets)
            try:
                load_checkpoint(path, model=model, optimizer=optimizer)
            except (ValueError, KeyError):
                return  # rejected: the expected outcome
            # a flip confined to padding may legitimately still load,
            # but then the payload must be untouched
            for name, value in reference.items():
                loaded = dict(model.named_parameters())[name].data
                assert loaded.tobytes() == value.tobytes(), name

    def test_future_format_version_rejected(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        model = ArbitraryModule([np.ones(3)])
        optimizer = Adam(model.parameters(), lr=0.1)
        path = tmp_path / "future.npz"
        monkeypatch.setattr(ckpt, "FORMAT_VERSION", 99)
        save_checkpoint(path, model=model, optimizer=optimizer, rng=rng)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="newer than this library"):
            read_checkpoint_header(path)
        with pytest.raises(ValueError, match="newer than this library"):
            load_checkpoint(path)

    def test_a_format_1_reader_refuses_this_format(self, tmp_path, monkeypatch):
        """Format 2 dropped keys a format-1 reader needs: such a reader
        names the newer format instead of failing on a missing key."""
        rng = np.random.default_rng(3)
        model = ArbitraryModule([np.ones(3)])
        path = tmp_path / "v2.npz"
        save_checkpoint(
            path, model=model, optimizer=Adam(model.parameters()), rng=rng
        )
        assert read_checkpoint_header(path)["format_version"] == 2
        monkeypatch.setattr(ckpt, "FORMAT_VERSION", 1)
        with pytest.raises(ValueError, match="format 2 is newer than this library"):
            load_checkpoint(path)

    def test_non_checkpoint_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_wrong_schema_rejected(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        model = ArbitraryModule([np.ones(3)])
        optimizer = Adam(model.parameters(), lr=0.1)
        path = tmp_path / "other.npz"
        monkeypatch.setattr(ckpt, "SCHEMA", "other.ckpt/v9")
        save_checkpoint(path, model=model, optimizer=optimizer, rng=rng)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="unsupported checkpoint schema"):
            load_checkpoint(path)

    def test_optimizer_type_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        model = ArbitraryModule([np.ones(3)])
        path = tmp_path / "sgd.npz"
        # another optimizer's state, as an older library's SGD saved it
        sgd = SimpleNamespace(state_dict=lambda: {
            "type": "SGD",
            "hyper": {"lr": 0.1, "momentum": 0.9},
            "slots": {"velocity": [np.zeros(3)]},
        })
        save_checkpoint(path, model=model, optimizer=sgd, rng=rng)
        with pytest.raises(ValueError, match="'SGD', cannot load into Adam"):
            load_checkpoint(path, optimizer=Adam(model.parameters()))
