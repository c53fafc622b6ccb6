"""Dataset persistence: save/load graph collections as ``.npz``.

Generated datasets are cheap to rebuild (everything is seeded), but
persisting them makes experiment artefacts shareable and lets external
tools consume the exact graphs a result was computed on.

Archive layout (format 2): one flat ``.npy`` member per field, holding
every graph's values back to back in record order::

    adjacency.npy          float64, each graph's N·N adjacency entries
    node_labels.npy        int64, N per graph that has node labels
    features.npy           float64, N·F per graph that has features
    edge_features.npy      float64, N·N·Fe per graph that has them
    __repro_dataset__.npy  JSON header: name, one record per graph

Each record gives its graph's node count ``num_nodes`` and the widths
that place it in the members (``has_node_labels``, ``num_features``,
``num_edge_features``), plus the graph label and ``meta``.  A member no
graph needs is not written.  Reading a member is one zip open and one
``.npy`` header parse however many graphs it holds, and every graph
gets arrays that own their memory.  The file stays an ``.npz`` that
``np.load`` opens.

Format-1 archives (one ``adj_{i}`` / ``labels_{i}`` / ``features_{i}``
/ ``edge_features_{i}`` member per graph) still load.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write
from repro.graph.graph import Graph

_HEADER_KEY = "__repro_dataset__"
FORMAT_VERSION = 2

#: the flat members of a format-2 archive and their dtypes
_FIELDS = (
    ("adjacency", np.dtype(np.float64)),
    ("node_labels", np.dtype(np.int64)),
    ("features", np.dtype(np.float64)),
    ("edge_features", np.dtype(np.float64)),
)


def _record(graph: Graph) -> dict:
    record = {"label": graph.label, "num_nodes": graph.num_nodes}
    if graph.node_labels is not None:
        record["has_node_labels"] = True
    if graph.features is not None:
        record["num_features"] = graph.features.shape[1]
    if graph.edge_features is not None:
        record["num_edge_features"] = graph.num_edge_features
    if graph.meta:
        # JSON-serialisable by contract (scaffold keys and the like).
        record["meta"] = graph.meta
    return record


def _shapes(record: dict) -> dict[str, tuple[int, ...]]:
    """The array shape of each field one format-2 record carries."""
    n = record["num_nodes"]
    shapes = {"adjacency": (n, n)}
    if record.get("has_node_labels"):
        shapes["node_labels"] = (n,)
    if "num_features" in record:
        shapes["features"] = (n, record["num_features"])
    if "num_edge_features" in record:
        shapes["edge_features"] = (n, n, record["num_edge_features"])
    return shapes


def _write_member(
    archive: zipfile.ZipFile, key: str, dtype: np.dtype, values: list
) -> None:
    """Write ``values`` back to back as one flat ``.npy`` member.

    Streams one array at a time after a header sized for the total, so
    the writer never holds a concatenated copy of the field.
    """
    total = sum(value.size for value in values)
    with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(
            member,
            {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (total,),
            },
        )
        for value in values:
            member.write(np.ascontiguousarray(value, dtype=dtype))


def save_graphs(graphs: list[Graph], path: str | Path, name: str = "") -> None:
    """Write a list of graphs (with labels/features when present).

    ``.npz`` is appended to ``path`` when missing, as ``np.savez`` does.
    The write is atomic (:func:`repro.atomic.atomic_write`): a crash
    mid-write leaves the previous file at ``path``, or none.
    """
    if not graphs:
        raise ValueError("nothing to save")
    header = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "count": len(graphs),
        "records": [_record(graph) for graph in graphs],
    }
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with atomic_write(path) as fh, zipfile.ZipFile(
        fh, "w", zipfile.ZIP_DEFLATED
    ) as archive:
        for field, dtype in _FIELDS:
            values = [
                getattr(graph, field)
                for graph in graphs
                if getattr(graph, field) is not None
            ]
            if values:
                _write_member(archive, field, dtype, values)
        _write_member(
            archive, _HEADER_KEY, np.dtype(np.uint8),
            [np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)],
        )


def _read_header(archive, path: Path) -> dict:
    if _HEADER_KEY not in archive:
        raise ValueError(f"{path} is not a repro dataset archive")
    return json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))


def read_archive_header(path: str | Path) -> dict:
    """Read only an archive's JSON header (no graph arrays decoded).

    Cheap relative to :func:`load_graphs`: it reports the archive's
    ``format_version``, ``name``, ``count`` and per-graph records.
    """
    path = Path(path)
    with np.load(path if path.suffix else path.with_suffix(".npz")) as archive:
        return _read_header(archive, path)


def _read_member(
    archive: zipfile.ZipFile, key: str, dtype: np.dtype, shapes: list
) -> list[np.ndarray | None]:
    """Split one flat member into per-graph arrays of the given shapes.

    ``shapes`` holds one entry per record, ``None`` for a record that
    lacks the field.  Each array is read into its own buffer, so no
    graph is a view into memory it shares with another.  Raises
    ``ValueError`` when the member runs out before its records do or
    has values left after the last record.
    """
    name = f"{key}.npy"
    need = sum(math.prod(shape) for shape in shapes if shape is not None)
    try:
        member = archive.open(name)
    except KeyError:
        if any(shape is not None for shape in shapes):
            raise ValueError(f"no {name} member, but records need one") from None
        return shapes
    with member:
        version = np.lib.format.read_magic(member)
        if version != (1, 0):
            raise ValueError(f"{name} has unsupported .npy version {version}")
        stored, _, stored_dtype = np.lib.format.read_array_header_1_0(member)
        if len(stored) != 1 or stored_dtype != dtype:
            raise ValueError(
                f"{name} holds a {stored_dtype} array of shape {stored}, "
                f"expected a flat {dtype} array"
            )
        if stored[0] < need:
            raise ValueError(
                f"{name} runs out: it holds {stored[0]} values, its records "
                f"need {need}"
            )
        if stored[0] > need:
            raise ValueError(
                f"{name} has {stored[0] - need} values left after the last "
                "record"
            )
        arrays = []
        for shape in shapes:
            if shape is None:
                arrays.append(None)
                continue
            array = np.empty(shape, dtype)
            if member.readinto(array) != array.nbytes:
                raise ValueError(f"{name} runs out before its records do")
            arrays.append(array)
        if member.read(1):
            raise ValueError(f"{name} has data left after the last record")
    return arrays


def _load_flat(archive: zipfile.ZipFile, records: list[dict]) -> list[Graph]:
    """Decode a format-2 archive, one pass over each field's member."""
    shapes = [_shapes(record) for record in records]
    fields = {
        field: _read_member(
            archive, field, dtype, [shape.get(field) for shape in shapes]
        )
        for field, dtype in _FIELDS
    }
    return [
        Graph(
            fields["adjacency"][i],
            node_labels=fields["node_labels"][i],
            features=fields["features"][i],
            label=record["label"],
            meta=record.get("meta", {}),
            edge_features=fields["edge_features"][i],
        )
        for i, record in enumerate(records)
    ]


def _load_format_1(archive, records: list[dict]) -> list[Graph]:
    """Decode a format-1 archive: one member per graph and field."""
    graphs = []
    for i, record in enumerate(records):
        graphs.append(
            Graph(
                archive[f"adj_{i}"],
                node_labels=(
                    archive[f"labels_{i}"]
                    if record.get("has_node_labels")
                    else None
                ),
                features=(
                    archive[f"features_{i}"]
                    if record.get("has_features")
                    else None
                ),
                label=record["label"],
                meta=record.get("meta", {}),
                edge_features=(
                    archive[f"edge_features_{i}"]
                    if record.get("has_edge_features")
                    else None
                ),
            )
        )
    return graphs


def load_graphs(path: str | Path) -> tuple[list[Graph], str]:
    """Load graphs saved by :func:`save_graphs`; returns (graphs, name).

    Raises ``ValueError`` for an archive that is not a repro dataset,
    was written by a newer library version, or whose members do not
    match its records.
    """
    path = Path(path)
    with np.load(path if path.suffix else path.with_suffix(".npz")) as archive:
        header = _read_header(archive, path)
        if header["format_version"] > FORMAT_VERSION:
            raise ValueError("archive was written by a newer library version")
        if header["format_version"] == 1:
            graphs = _load_format_1(archive, header["records"])
        else:
            graphs = _load_flat(archive.zip, header["records"])
    return graphs, header.get("name", "")
