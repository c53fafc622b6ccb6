"""The :class:`CSRMatrix` sparse adjacency representation.

The dense execution path stores a graph's adjacency as an ``(N, N)``
array — O(N²) memory, which caps practical graph size around the
paper's regime (≤ ~500 nodes).  A CSR adjacency (docs/sparse.md)
stores only the E non-zero entries in compressed-sparse-row layout:

- ``indptr``  ``(N + 1,)`` int array; row ``i``'s entries occupy the
  slice ``indptr[i]:indptr[i + 1]`` of ``indices``/``data``;
- ``indices`` ``(E,)`` int array of column indices, sorted within each
  row;
- ``data``    ``(E,)`` float array of the corresponding values.

A ``CSRMatrix`` is a *constant* in the autograd sense: the sparse
paths treat the input adjacency as fixed structure (the coarsened
adjacencies further up the hierarchy are small and stay dense and
differentiable).  Gradients flow through the dense operands and the
optional per-edge ``values`` of :func:`repro.tensor.ops.spmm`, never
through ``CSRMatrix.data`` itself.

``to_dense()`` exists for conversion, tests and the dense view of a
lone graph that a dense-reading coarsening needs — materialising an
``(N, N)`` array inside a sparse code path defeats its purpose, and
``tools/lint.py`` flags it (rule ``no-densify-in-sparse-path``).
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - scipy is a declared dependency
    # _sparsetools holds the compiled loops scipy's own sparse products
    # call; calling them directly skips building a matrix object.  The
    # module is private, so a scipy without one of these names falls
    # back to the np.add.at reference in CSRMatrix.matmul (pyproject
    # caps scipy at the versions tests/test_fused_kernels.py pins).
    from scipy.sparse._sparsetools import (
        csc_matvec,
        csc_matvecs,
        csr_matvec,
        csr_matvecs,
    )

    #: (matvec, matvecs) kernels by ``transpose``; None when unavailable
    _KERNELS = {False: (csr_matvec, csr_matvecs), True: (csc_matvec, csc_matvecs)}
except ImportError:  # pragma: no cover
    _KERNELS = None


class CSRMatrix:
    """A constant sparse matrix in compressed-sparse-row layout.

    Because the structure *and* values are constant, every derived
    quantity — the COO row ids, GCN's degree scaling, the self-loop
    variant — is computed once and cached on the instance
    (``docs/performance.md``).  Caches never travel through pickle: a
    round-tripped matrix carries only the four defining arrays and
    rebuilds lazily.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_row_ids", "_cache")

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=np.float64)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"invalid shape {shape}")
        if indptr.ndim != 1 or indptr.shape[0] != n_rows + 1:
            raise ValueError(
                f"indptr must have shape ({n_rows + 1},), got {indptr.shape}"
            )
        if indices.ndim != 1 or data.shape != indices.shape:
            raise ValueError(
                f"indices/data must be matching 1-D arrays, got "
                f"{indices.shape} and {data.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(f"column indices out of range [0, {n_cols})")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (n_rows, n_cols)
        self._row_ids: np.ndarray | None = None
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.shape[0])

    @property
    def row_ids(self) -> np.ndarray:
        """``(E,)`` row index of every stored entry (cached expansion of
        ``indptr`` — the COO twin of ``indices``)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.shape[0], dtype=np.intp), np.diff(self.indptr)
            )
        return self._row_ids

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # Pickling: ship only the defining arrays, never the caches (derived
    # matrices would bloat shard/checkpoint payloads and every worker can
    # rebuild them lazily anyway).
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.indptr, self.indices, self.data, self.shape)

    def __setstate__(self, state):
        self.indptr, self.indices, self.data, self.shape = state
        self._row_ids = None
        self._cache = {}

    def __reduce__(self):
        return (_rebuild_csr, self.__getstate__())

    # ------------------------------------------------------------------
    # The product kernel (docs/performance.md)
    # ------------------------------------------------------------------
    def matmul(self, dense, values=None, transpose: bool = False) -> np.ndarray:
        """``A @ dense``, or ``Aᵀ @ dense`` with ``transpose=True``.

        ``dense`` is ``(M, ...)`` against the matching side of ``A``;
        ``values`` replaces the stored entries' data (per-edge weights).
        scipy's compiled kernels run on this matrix's own arrays: the
        product reads them as CSR and the transposed product as the CSC
        layout of ``Aᵀ``, so no transposed structure is sorted and no
        scipy matrix is built per call.  Both accumulate each output row
        over its entries in ascending order of their other index, the
        order the ``np.add.at`` reference below walks them, so compiled
        and reference results agree bitwise (tests/test_fused_kernels.py).
        """
        data = self.data if values is None else np.asarray(values, dtype=np.float64)
        dense = np.ascontiguousarray(dense, dtype=np.float64)
        out = np.zeros((self.shape[1 if transpose else 0],) + dense.shape[1:])
        if _KERNELS is None:
            rows, cols = self.row_ids, self.indices
            if transpose:
                rows, cols = cols, rows
            weights = data.reshape((-1,) + (1,) * (dense.ndim - 1))
            np.add.at(out, rows, weights * dense[cols])
            return out
        # Aᵀ in CSC layout is (n_cols, n_rows) over the same three arrays.
        shape = self.shape[::-1] if transpose else self.shape
        matvec, matvecs = _KERNELS[transpose]
        if dense.ndim == 1:
            matvec(*shape, self.indptr, self.indices, data, dense, out)
        else:
            matvecs(
                *shape, math.prod(dense.shape[1:]), self.indptr,
                self.indices, data, dense.reshape(-1), out.reshape(-1),
            )
        return out

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(cls, indptr, indices, data, shape) -> "CSRMatrix":
        """Wrap arrays already in valid CSR layout, skipping the checks of
        ``__init__`` (each costs a pass over the entries, and the
        constructors below build their arrays valid)."""
        out = cls.__new__(cls)
        out.__setstate__((indptr, indices, data, shape))
        return out

    @classmethod
    def block_diagonal(cls, blocks) -> "CSRMatrix":
        """``blocks`` along the diagonal of one matrix, in order.

        Each block's entries keep their order, shifted past the rows and
        columns of the blocks before it, so per-entry arrays of the
        blocks (edge attributes) concatenate into arrays aligned with
        the result.  One concatenation per array, no sort.
        """
        # (rows, cols, entries) of every block, and where each starts
        dims = np.array(
            [(*b.shape, b.indices.shape[0]) for b in blocks], dtype=np.intp
        )
        starts = np.cumsum(dims, axis=0) - dims
        total = starts[-1] + dims[-1]
        indptr = np.concatenate([b.indptr[:-1] for b in blocks] + [total[2:]])
        indptr[:-1] += np.repeat(starts[:, 2], dims[:, 0])
        indices = np.concatenate([b.indices for b in blocks])
        indices += np.repeat(starts[:, 1], dims[:, 2])
        data = np.concatenate([b.data for b in blocks])
        return cls._unchecked(indptr, indices, data, (int(total[0]), int(total[1])))

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Compress a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        # Row-major positions of the entries: row i's start at i * n_cols.
        flat = np.flatnonzero(arr)
        n_rows, n_cols = arr.shape
        indptr = np.searchsorted(flat, np.arange(n_rows + 1) * n_cols)
        return cls._unchecked(
            indptr, flat % max(n_cols, 1), arr.reshape(-1)[flat], arr.shape
        )

    @classmethod
    def from_coo(cls, rows, cols, values, shape: tuple[int, int]) -> "CSRMatrix":
        """Build from coordinate triplets; duplicate positions are summed
        (so e.g. adding self-loops to a diagonal that already carries
        weight accumulates, exactly like ``dense + np.eye(n)``)."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows/cols/values must be matching 1-D arrays")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError(f"row indices out of range [0, {n_rows})")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError(f"column indices out of range [0, {n_cols})")
        # Sort by (row, col), then merge duplicates by summing values.
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            new_entry = np.empty(rows.size, dtype=bool)
            new_entry[0] = True
            new_entry[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(new_entry) - 1
            merged = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(merged, group, values)
            rows, cols, values = rows[new_entry], cols[new_entry], merged
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls._unchecked(indptr, cols, values, (n_rows, n_cols))

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(N, M)`` array — conversion, tests and
        the dense view a dense-reading ``select`` gets of a lone graph
        (:class:`~repro.pooling.base.Coarsening`); never inside a sparse
        execution path (see module doc)."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids, self.indices] = self.data
        return out

    # ------------------------------------------------------------------
    # Structure-preserving transforms
    # ------------------------------------------------------------------
    def with_data(self, data) -> "CSRMatrix":
        """Same sparsity pattern, new values (e.g. normalised weights)."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.indices.shape:
            raise ValueError(
                f"data shape {data.shape} does not match nnz ({self.nnz},)"
            )
        out = CSRMatrix._unchecked(self.indptr, self.indices, data, self.shape)
        out._row_ids = self._row_ids
        return out

    def transpose(self) -> "CSRMatrix":
        """The transposed matrix (rows and columns swapped); cached."""
        out = self._cache.get("transpose")
        if out is None:
            out = CSRMatrix.from_coo(
                self.indices, self.row_ids, self.data, (self.shape[1], self.shape[0])
            )
            self._cache["transpose"] = out
        return out

    def with_self_loops(self, value: float = 1.0) -> "CSRMatrix":
        """``A + value * I`` — existing diagonal entries accumulate, just
        like the dense ``adjacency + np.eye(n)``.  Square matrices only.
        The result is cached per loop weight: a layer reads the same
        constant adjacency's loops at every forward.

        One O(E) pass, no sort: a stored diagonal entry gains ``value``,
        and a row without one gets its loop inserted at its sorted
        position.  The arrays equal ``from_coo``'s sorted merge of ``A``
        and the loops (tests/test_sparse_equivalence.py); a ragged batch
        has a new adjacency every step, and that sort took 2.7 ms of a
        6.5 ms GAT forward on a 32-graph batch (x86, 2 vCPU).
        """
        cached = self._cache.get(("self_loops", value))
        if cached is not None:
            return cached
        n_rows, n_cols = self.shape
        if n_rows != n_cols:
            raise ValueError(f"self-loops need a square matrix, got {self.shape}")
        rows, cols = self.row_ids, self.indices
        stored = np.zeros(n_rows, dtype=bool)
        stored[rows[rows == cols]] = True
        indptr = self.indptr + np.concatenate([[0], np.cumsum(~stored)])
        # Every row's diagonal sits right after its entries left of it;
        # the stored entries fill the other positions in their order.
        diag = indptr[:-1] + np.bincount(rows[cols < rows], minlength=n_rows)
        kept = np.ones(indptr[-1], dtype=bool)
        kept[diag[~stored]] = False
        indices = np.empty(indptr[-1], dtype=np.intp)
        data = np.zeros(indptr[-1])
        indices[kept], data[kept] = cols, self.data
        indices[diag] = np.arange(n_rows)
        data[diag] += value
        out = CSRMatrix._unchecked(indptr, indices, data, self.shape)
        self._cache[("self_loops", value)] = out
        return out

    def cached(self, key, factory):
        """Memoise ``factory(self)`` under ``key`` on this constant
        matrix (e.g. the per-entry weights a GCN layer needs every step;
        see :func:`repro.tensor.ops._gcn_propagate_csr`)."""
        value = self._cache.get(key)
        if value is None:
            value = factory(self)
            self._cache[key] = value
        return value

    def row_sums(self) -> np.ndarray:
        """``(N,)`` sum of every row (the weighted out-degree)."""
        # bincount accumulates in entry order, exactly like np.add.at,
        # without the per-element dispatch cost.
        return np.bincount(self.row_ids, weights=self.data, minlength=self.shape[0])


def _rebuild_csr(indptr, indices, data, shape) -> CSRMatrix:
    """Pickle reconstructor (module-level so it pickles by name)."""
    return CSRMatrix(indptr, indices, data, shape)
