"""Op-level profiling hooks for the autograd engine.

Every public op in ``repro.tensor.ops`` is wrapped (once, at import
time) by a shim that checks a module-global hook::

    hook = _PROFILE_HOOK
    if hook is None:
        return fn(*args, **kwargs)      # disabled: one comparison
    return hook.run_op(name, fn, args, kwargs)

Installing an :class:`OpProfiler` (usually via :func:`profile_ops`)
sets that hook; ``run_op`` times the forward call, measures the output
array, and replaces the node's ``_backward`` closure with a timed one
so the backward pass is attributed per op as well.  When the profiler
is *not* installed the tape is untouched — nodes keep their raw
closures — which is what keeps disabled-mode overhead near zero.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class OpStat:
    """Accumulated statistics for one op name."""

    name: str
    calls: int = 0
    forward_s: float = 0.0
    forward_self_s: float = 0.0
    backward_calls: int = 0
    backward_s: float = 0.0
    bytes_out: int = 0
    peak_bytes: int = 0

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "forward_s": self.forward_s,
            "forward_self_s": self.forward_self_s,
            "backward_calls": self.backward_calls,
            "backward_s": self.backward_s,
            "total_s": self.total_s,
            "bytes_out": self.bytes_out,
            "peak_bytes": self.peak_bytes,
        }


class OpProfiler:
    """Records per-op forward/backward wall time and output bytes.

    ``forward_self_s`` subtracts time spent in *nested* op calls (an op
    may be built from other ops), so the self-time column sums to
    roughly the true tensor-engine time instead of double counting.
    """

    def __init__(self):
        self.stats: dict[str, OpStat] = {}
        self._frames = threading.local()
        self._installed = False

    def _stat(self, name: str) -> OpStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = OpStat(name)
        return stat

    def run_op(self, name: str, fn, args, kwargs):
        frames = getattr(self._frames, "stack", None)
        if frames is None:
            frames = self._frames.stack = []
        frames.append(0.0)  # child-time accumulator for this call
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child_s = frames.pop()
            if frames:
                frames[-1] += elapsed
        stat = self._stat(name)
        stat.calls += 1
        stat.forward_s += elapsed
        stat.forward_self_s += max(elapsed - child_s, 0.0)

        data = getattr(out, "data", None)
        nbytes = getattr(data, "nbytes", None)
        if nbytes is not None:
            stat.bytes_out += nbytes
            if nbytes > stat.peak_bytes:
                stat.peak_bytes = nbytes

        raw_backward = getattr(out, "_backward", None)
        if raw_backward is not None:
            profiler = self

            def profiled_backward(grad):
                t0 = time.perf_counter()
                try:
                    return raw_backward(grad)
                finally:
                    bstat = profiler._stat(name)
                    bstat.backward_calls += 1
                    bstat.backward_s += time.perf_counter() - t0

            out._backward = profiled_backward
        return out

    def install(self) -> "OpProfiler":
        from repro.tensor import ops as _ops

        if self._installed:
            return self
        if _ops._PROFILE_HOOK is not None:
            raise RuntimeError("another op profiler is already installed")
        _ops._PROFILE_HOOK = self
        self._installed = True
        return self

    def uninstall(self) -> "OpProfiler":
        from repro.tensor import ops as _ops

        if self._installed:
            if _ops._PROFILE_HOOK is self:
                _ops._PROFILE_HOOK = None
            self._installed = False
        return self

    def reset(self) -> None:
        self.stats.clear()

    def summary(self) -> list[dict]:
        """Per-op rows sorted by total (forward + backward) time."""
        rows = [s.to_dict() for s in self.stats.values()]
        rows.sort(key=lambda r: r["total_s"], reverse=True)
        return rows

    def total_forward_calls(self) -> int:
        return sum(s.calls for s in self.stats.values())


@contextmanager
def profile_ops():
    """Install a fresh :class:`OpProfiler` for the duration of the block."""
    profiler = OpProfiler()
    profiler.install()
    try:
        yield profiler
    finally:
        profiler.uninstall()
