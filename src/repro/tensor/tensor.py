"""The ``Tensor`` type: a numpy array with a reverse-mode autograd tape.

The design mirrors the classic define-by-run approach: every operation
on tensors that require gradients records a node holding references to
its parents and a closure computing the local vector-Jacobian product.
``Tensor.backward()`` topologically sorts the recorded graph and
accumulates gradients into the leaves.

Only float64 data participates in differentiation; integer tensors are
allowed as constants (e.g. index arrays) but never require gradients.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.tensor.pool import get_buffer_pool

_STATE = threading.local()


class _LazyOps:
    """Bootstrap placeholder for the ops module.

    :mod:`repro.tensor.ops` replaces this with itself at the end of its
    own import (``tensor._OPS = sys.modules[__name__]``), so operator
    dunders pay one module-global load per call instead of running the
    import machinery.  This fallback only fires if a dunder is hit while
    ops is still mid-import.
    """

    def __getattr__(self, name):  # pragma: no cover - import-order fallback
        from repro.tensor import ops

        return getattr(ops, name)


_OPS = _LazyOps()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (evaluation mode)."""
    previous = is_grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable numpy array.

    Parameters
    ----------
    data:
        Array-like; coerced to ``np.float64`` unless it already is an
        integer/bool array (kept as-is, non-differentiable).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")
    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype.kind not in "iub":
            arr = arr.astype(np.float64, copy=False)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents: tuple[tuple["Tensor", object], ...] = ()
        self._backward = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return _OPS.transpose(self)

    @property
    def mT(self) -> "Tensor":
        """Transpose of the last two axes, as numpy's ``ndarray.mT``."""
        lead = tuple(range(self.ndim - 2))
        return _OPS.transpose(self, lead + (self.ndim - 1, self.ndim - 2))

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{flag})"

    def item(self) -> float:
        """Return the single scalar value held by this tensor."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autograd tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient.

        With an active :func:`repro.tensor.pool.buffer_pool`, the old
        gradient array is recycled so the next backward pass reuses it.
        """
        if self.grad is not None:
            pool = get_buffer_pool()
            if pool is not None:
                pool.release(self.grad)
            self.grad = None

    # ------------------------------------------------------------------
    # Tape construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents, backward) -> "Tensor":
        """Create an interior node of the autograd graph.

        ``parents`` is a sequence of tensors feeding this op; ``backward``
        maps the output gradient to a tuple of parent gradients (None for
        parents that do not require grad).
        """
        needs = False
        if getattr(_STATE, "grad_enabled", True):
            for p in parents:
                if p.requires_grad:
                    needs = True
                    break
        # Fast construction path: ops hand us freshly computed float64
        # arrays, so skip ``__init__``'s coercion (asarray + dtype check
        # are the dominant per-op dispatch cost on small workloads).
        data = np.asarray(data)
        if data.dtype.kind not in "iub" and data.dtype != np.float64:
            data = data.astype(np.float64)  # pragma: no cover - ops emit f64
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = needs
        out.name = None
        if needs:
            out._parents = tuple((p, None) for p in parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the common "loss.backward()" case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # With an active buffer pool, accumulation buffers are acquired
        # from (and eventually recycled into) the pool.  ``fresh`` holds
        # ids of buffers this pass acquired and still uniquely owns —
        # only those may be written in place; arrays returned by op
        # closures are never mutated since a closure may alias one array
        # into several parent gradients.  A fresh buffer stops being
        # fresh the moment it is popped and fed to a closure (which may
        # return it, or a view of it, as a parent gradient); it is then
        # *retired* and only released once the whole pass is done.
        pool = get_buffer_pool()
        fresh: set[int] = set()
        retired: list[np.ndarray] = []
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            was_fresh = id(node_grad) in fresh
            if was_fresh:
                fresh.discard(id(node_grad))
            if node._backward is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    if was_fresh:
                        # Transfer ownership: the accumulation buffer was
                        # never seen by a closure, so nothing aliases it.
                        node.grad = node_grad
                    elif pool is not None:
                        buf = pool.acquire(node_grad.shape, node_grad.dtype)
                        np.copyto(buf, node_grad)
                        node.grad = buf
                    else:
                        node.grad = node_grad.copy()
                else:
                    if (
                        pool is not None
                        and pool.owns(node.grad)
                        and node.grad.shape == node_grad.shape
                    ):
                        np.add(node.grad, node_grad, out=node.grad)
                    else:
                        node.grad = node.grad + node_grad
                    if was_fresh:
                        retired.append(node_grad)
                continue
            parent_grads = node._backward(node_grad)
            if was_fresh:
                retired.append(node_grad)
            for (parent, _), pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                existing = grads.get(key)
                if existing is None:
                    grads[key] = pgrad
                elif (
                    id(existing) in fresh
                    and existing.shape == np.shape(pgrad)
                ):
                    np.add(existing, pgrad, out=existing)
                elif pool is not None and existing.shape == np.shape(pgrad):
                    buf = pool.acquire(existing.shape, existing.dtype)
                    np.add(existing, pgrad, out=buf)
                    grads[key] = buf
                    fresh.add(id(buf))
                else:
                    # Shape-mismatched accumulation (a broadcast gradient
                    # meeting a full one) stays on the allocating path.
                    if id(existing) in fresh:
                        fresh.discard(id(existing))
                        retired.append(existing)
                    grads[key] = existing + pgrad
        if pool is not None:
            for arr in retired:
                pool.release(arr)
        # Any remaining gradient entries belong to leaves reached without
        # interior processing (e.g. self is a leaf).
        if not order and self._backward is None:
            if self.grad is None:
                self.grad = grad.copy()
            else:
                self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Operator overloads (delegate to repro.tensor.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return _OPS.add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _OPS.sub(self, as_tensor(other))

    def __rsub__(self, other):
        return _OPS.sub(as_tensor(other), self)

    def __mul__(self, other):
        return _OPS.mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _OPS.div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return _OPS.div(as_tensor(other), self)

    def __neg__(self):
        return _OPS.neg(self)

    def __matmul__(self, other):
        return _OPS.matmul(self, as_tensor(other))

    def __rmatmul__(self, other):
        return _OPS.matmul(as_tensor(other), self)

    def __pow__(self, exponent):
        return _OPS.power(self, float(exponent))

    def __getitem__(self, index):
        return _OPS.getitem(self, index)

    # Convenience reductions -------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        return _OPS.sum_along(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return _OPS.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        return _OPS.max_along(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _OPS.reshape(self, shape)

    def flatten(self):
        return self.reshape(self.data.size)

    def transpose(self, axes=None):
        return _OPS.transpose(self, axes)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# Internal export used by ops.py
unbroadcast = _unbroadcast
