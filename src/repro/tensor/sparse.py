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

``to_dense()`` exists for conversion and testing only — materialising
an ``(N, N)`` array inside a sparse code path defeats its purpose, and
``tools/lint.py`` flags it (rule ``no-densify-in-sparse-path``).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - scipy is a declared dependency; the fallback
    # keeps the kernels importable on a stripped-down interpreter
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover
    _scipy_sparse = None


class CSRMatrix:
    """A constant sparse matrix in compressed-sparse-row layout.

    Because the structure *and* values are constant, every derived
    quantity — the COO row ids, the scipy handle driving
    :func:`repro.tensor.ops.spmm`, the transpose permutation used by its
    backward scatter, self-loop/normalised variants — is computed once
    and cached on the instance (``docs/performance.md``).  Caches never
    travel through pickle: a round-tripped matrix carries only the four
    defining arrays and rebuilds lazily.
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
    # Pickling: ship only the defining arrays, never the caches (scipy
    # handles and derived matrices would bloat shard/checkpoint payloads
    # and every worker can rebuild them lazily anyway).
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.indptr, self.indices, self.data, self.shape)

    def __setstate__(self, state):
        indptr, indices, data, shape = state
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape
        self._row_ids = None
        self._cache = {}

    def __reduce__(self):
        return (_rebuild_csr, self.__getstate__())

    # ------------------------------------------------------------------
    # Cached execution-kernel structures (docs/performance.md)
    # ------------------------------------------------------------------
    def scipy_csr(self):
        """The scipy CSR handle for forward ``A @ H`` products.

        scipy's compiled kernel accumulates each output row over its
        column-sorted entries — the same order ``np.add.at`` walks them —
        so results are bitwise identical to the scatter-add reference
        (tests/test_fused_kernels.py) at a fraction of the cost.
        Returns None when scipy is unavailable.
        """
        if _scipy_sparse is None:
            return None
        handle = self._cache.get("scipy")
        if handle is None:
            handle = _scipy_sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
            self._cache["scipy"] = handle
        return handle

    def transpose_permutation(self):
        """``(perm, t_indices, t_indptr)`` mapping entries into the
        transposed CSR layout (sorted by column, then row).

        The backward scatter of :func:`repro.tensor.ops.spmm` is exactly
        ``A^T @ G``; reordering the edge values with ``perm`` into this
        layout lets scipy run it as a forward product while preserving
        the accumulation order of the ``np.add.at`` reference.
        """
        cached = self._cache.get("t_perm")
        if cached is None:
            row_ids, col_ids = self.row_ids, self.indices
            perm = np.lexsort((row_ids, col_ids))
            t_indptr = np.zeros(self.shape[1] + 1, dtype=np.intp)
            np.cumsum(
                np.bincount(col_ids, minlength=self.shape[1]), out=t_indptr[1:]
            )
            cached = (perm, row_ids[perm], t_indptr)
            self._cache["t_perm"] = cached
        return cached

    def scipy_csr_with(self, values: np.ndarray):
        """A scipy CSR handle over this structure with per-edge
        ``values`` (the differentiable-weights forward of :func:`spmm`)."""
        if _scipy_sparse is None:
            return None
        return _scipy_sparse.csr_matrix(
            (np.asarray(values), self.indices, self.indptr), shape=self.shape
        )

    def scipy_csr_t(self):
        """Cached scipy handle of the transposed matrix (constant data)."""
        if _scipy_sparse is None:
            return None
        handle = self._cache.get("scipy_t")
        if handle is None:
            perm, t_indices, t_indptr = self.transpose_permutation()
            handle = _scipy_sparse.csr_matrix(
                (self.data[perm], t_indices, t_indptr),
                shape=(self.shape[1], self.shape[0]),
            )
            self._cache["scipy_t"] = handle
        return handle

    def scipy_csr_t_with(self, values: np.ndarray):
        """Transposed scipy handle carrying per-edge ``values`` (the
        differentiable-weights backward of :func:`spmm`)."""
        if _scipy_sparse is None:
            return None
        perm, t_indices, t_indptr = self.transpose_permutation()
        return _scipy_sparse.csr_matrix(
            (np.asarray(values)[perm], t_indices, t_indptr),
            shape=(self.shape[1], self.shape[0]),
        )

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Compress a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        rows, cols = np.nonzero(arr)
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=arr.shape[0]), out=indptr[1:])
        return cls(indptr, cols, arr[rows, cols], arr.shape)

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
        return cls(indptr, cols, values, (n_rows, n_cols))

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(N, M)`` array — conversion/testing
        only, never inside a sparse execution path (see module doc)."""
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
        out = CSRMatrix(self.indptr, self.indices, data, self.shape)
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
        The result is cached per loop weight: GNN layers renormalise the
        same constant adjacency every forward, and rebuilding the merged
        structure costs a full lexsort each time."""
        cached = self._cache.get(("self_loops", value))
        if cached is not None:
            return cached
        n_rows, n_cols = self.shape
        if n_rows != n_cols:
            raise ValueError(f"self-loops need a square matrix, got {self.shape}")
        diag = np.arange(n_rows, dtype=np.intp)
        out = CSRMatrix.from_coo(
            np.concatenate([self.row_ids, diag]),
            np.concatenate([self.indices, diag]),
            np.concatenate([self.data, np.full(n_rows, float(value))]),
            self.shape,
        )
        self._cache[("self_loops", value)] = out
        return out

    def cached(self, key, factory):
        """Memoise ``factory(self)`` under ``key`` on this constant
        matrix (e.g. the symmetric-normalised variant a GCN layer needs
        every step; see :func:`repro.gnn.layers.normalize_adjacency_sparse`)."""
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
