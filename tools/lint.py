"""AST-based repository linter (first stage of tools/ci.sh).

Seven rules, each targeting a bug class this codebase has actually had
to design around:

- **no-bare-except** — ``except:`` swallows ``KeyboardInterrupt`` and
  ``SystemExit``; worker processes that catch those hang the pool
  instead of dying loudly.  Catch a concrete exception type (at
  minimum ``Exception``).
- **no-mutable-default** — ``def f(x=[])`` shares one list across
  calls; with task payloads pickled into worker processes the shared
  state silently diverges between parent and workers.
- **no-global-numpy-random** — ``np.random.seed`` / ``np.random.rand``
  and friends draw from the process-global legacy RNG.  The parallel
  engine (docs/parallelism.md) makes this a real bug class: the global
  stream differs per worker and per schedule, so any code relying on
  it loses bitwise determinism.  Use ``np.random.default_rng`` /
  ``SeedSequence`` streams threaded through call sites instead.
- **no-densify-in-sparse-path** — the point of the sparse CSR backend
  (docs/sparse.md) is O(E) peak memory; one stray ``.to_dense()`` or
  ``np.eye(n)`` inside a sparse code path silently reintroduces the
  O(N²) allocation the backend exists to avoid, and no functional test
  catches it (the numbers stay correct).  Inside ``src/`` functions
  whose names contain ``sparse`` (the naming convention for sparse
  execution paths), calls to ``.to_dense()`` / ``.toarray()`` /
  ``.todense()``, ``np.eye`` and square-shaped ``np.zeros/ones/full``
  allocations are flagged.  Tests and benchmarks are exempt — they
  densify deliberately to compare against the dense reference.
- **no-unfused-attention** — the MOA/coarsening hot path runs through
  the fused kernels ``masked_softmax_mean`` / ``matmul_tn`` /
  ``coarsen_chain`` (docs/performance.md), which skip the materialised
  ``(B, N, N)`` softmax intermediate and its tape nodes.  A function in
  ``src/repro/core/`` or ``src/repro/pooling/`` that calls
  ``masked_softmax`` and then ``matmul``, or feeds the softmax to
  ``@`` (directly, through a name bound to it in the same function, or
  through an attribute of either such as ``probs.T``), has reintroduced
  the unfused composition — every number stays correct, only the step
  time and peak memory regress, so no functional test catches it.  Tests
  and benchmarks are exempt (the fused-gate suites build the unfused
  composition on purpose to compare against).
- **no-materialize-in-streaming-path** — the out-of-core pipeline
  (docs/streaming.md) holds a bounded window of decoded graphs; one stray
  ``list(dataset)`` / ``sorted(examples)`` inside a streaming code
  path pulls the whole corpus into RAM and silently cancels the memory
  contract the memory benchmark checks — while every functional result
  stays correct.  Inside ``src/`` streaming scopes (modules named
  ``streaming*`` or functions whose names contain ``stream``), calls
  to ``list()`` / ``sorted()`` / ``tuple()`` over an identifier that
  looks like a corpus (``dataset``, ``stream``, ``shard``, ``graphs``,
  ``examples``, ``items``, ``view``) are flagged.  Tests and
  benchmarks are exempt — equivalence suites materialise both sides on
  purpose.
- **no-dropped-edge-attr** — a GNN layer that accepts ``edge_attr``
  but never reads it silently ignores the bond features the caller
  passed, and every functional test on unconditioned data still
  passes (docs/molecular.md).  Inside ``src/repro/gnn``, a function
  with an ``edge_attr`` parameter must reference it in its body —
  consume it or raise (``GCNLayer`` raises, which counts).

Usage::

    python tools/lint.py [paths...]     # default: src tools tests benchmarks examples

Exit code 0 when clean, 1 with one ``path:line: [rule] message`` per
finding otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tools", "tests", "benchmarks", "examples")

#: members of numpy.random that are safe under parallel execution —
#: everything constructed from an explicit seed or seed sequence
ALLOWED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "SFC64",
    "MT19937",
}

MUTABLE_CALLS = {"list", "dict", "set"}

#: methods that materialise a dense array from a sparse structure
DENSIFY_METHODS = {"to_dense", "toarray", "todense"}

#: numpy allocators that can build an (N, N) dense matrix
DENSE_ALLOCATORS = {"zeros", "ones", "full", "empty"}

#: builtins that materialise their whole argument at once
MATERIALIZERS = {"list", "sorted", "tuple"}

#: identifier substrings that suggest the argument is a graph corpus
#: rather than a small bookkeeping collection
CORPUS_HINTS = ("dataset", "stream", "shard", "graphs", "examples", "items", "view")

#: the unfused attention softmax and the dense products it used to feed;
#: calling both in one hot-path function is the pre-fusion composition
UNFUSED_SOFTMAX = {"masked_softmax"}
UNFUSED_PRODUCTS = {"matmul"}


def _own_scope_nodes(node: ast.AST) -> list[ast.AST]:
    """Every node in ``node``'s body outside nested function definitions.

    Nested functions are visited (and checked) as their own scopes.
    """
    nodes = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes.append(child)
        stack.extend(ast.iter_child_nodes(child))
    return nodes


def _call_name(node: ast.AST) -> str | None:
    """``f`` for a call ``f(...)`` or ``x.f(...)``; None for anything else."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_softmax_result(node: ast.AST, bound: set[str]) -> bool:
    """Whether ``node`` is a softmax result, a name bound to one, or an
    attribute, subscript or method call of either (``probs.T``)."""
    while True:
        if _call_name(node) in UNFUSED_SOFTMAX:
            return True
        if isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        else:
            return isinstance(node, ast.Name) and node.id in bound


def _is_np_random(node: ast.AST) -> bool:
    """Match ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


class Linter(ast.NodeVisitor):
    def __init__(self, path: Path):
        self.path = path
        self.findings: list[tuple[int, str, str]] = []
        #: densification and materialisation are only policed in library
        #: code; tests and benchmarks do both on purpose
        self.police_densify = "src" in path.parts
        self.police_materialize = "src" in path.parts
        #: fusion is policed in the hot-path packages only: the MOA /
        #: coarsening core and the pooling operator zoo
        self.police_fusion = "src" in path.parts and (
            "core" in path.parts or "pooling" in path.parts
        )
        #: edge-attribute plumbing is policed in the GNN layer package,
        #: where a dropped operand silently un-conditions the model
        self.police_edge_attr = "src" in path.parts and "gnn" in path.parts
        self._sparse_depth = 0
        #: a whole module named streaming* is one streaming scope
        self._stream_depth = int(
            self.police_materialize and path.stem.startswith("streaming")
        )

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append((node.lineno, rule, message))

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node, "no-bare-except",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "catch a concrete exception type",
            )
        self.generic_visit(node)

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_CALLS
            )
            if mutable:
                self.report(
                    default, "no-mutable-default",
                    f"mutable default argument in {node.name}(); "
                    "use None and construct inside the function",
                )

    def _check_fusion(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if not self.police_fusion:
            return
        nodes = _own_scope_nodes(node)
        called = {_call_name(child) for child in nodes}
        bound = {
            target.id
            for child in nodes
            if isinstance(child, ast.Assign)
            and _call_name(child.value) in UNFUSED_SOFTMAX
            for target in child.targets
            if isinstance(target, ast.Name)
        }
        products = called & UNFUSED_PRODUCTS
        if any(
            isinstance(child, ast.BinOp)
            and isinstance(child.op, ast.MatMult)
            and (
                _is_softmax_result(child.left, bound)
                or _is_softmax_result(child.right, bound)
            )
            for child in nodes
        ):
            products.add("@")
        if called & UNFUSED_SOFTMAX and products:
            softmax_name = ", ".join(sorted(called & UNFUSED_SOFTMAX))
            product_name = ", ".join(sorted(products))
            self.report(
                node, "no-unfused-attention",
                f"{node.name}() composes {softmax_name} with {product_name} "
                "— the unfused attention path materialises the (B, N, N) "
                "softmax intermediate; use masked_softmax_mean / matmul_tn "
                "/ coarsen_chain instead (docs/performance.md)",
            )

    def _check_edge_attr(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if not self.police_edge_attr:
            return
        params = [
            arg.arg
            for arg in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
        ]
        if "edge_attr" not in params:
            return
        reads = any(
            isinstance(child, ast.Name) and child.id == "edge_attr"
            for body_node in node.body
            for child in ast.walk(body_node)
        )
        if not reads:
            self.report(
                node, "no-dropped-edge-attr",
                f"{node.name}() accepts edge_attr but never reads it — the "
                "bond features the caller passed are silently dropped; "
                "consume the operand or raise (docs/molecular.md)",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_fusion(node)
        self._check_edge_attr(node)
        sparse_scope = self.police_densify and "sparse" in node.name
        stream_scope = self.police_materialize and "stream" in node.name
        if sparse_scope:
            self._sparse_depth += 1
        if stream_scope:
            self._stream_depth += 1
        self.generic_visit(node)
        if sparse_scope:
            self._sparse_depth -= 1
        if stream_scope:
            self._stream_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_fusion(node)
        self._check_edge_attr(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._stream_depth
            and isinstance(node.func, ast.Name)
            and node.func.id in MATERIALIZERS
            and node.args
        ):
            target = node.args[0]
            identifier = None
            if isinstance(target, ast.Name):
                identifier = target.id
            elif isinstance(target, ast.Attribute):
                identifier = target.attr
            if identifier is not None and any(
                hint in identifier.lower() for hint in CORPUS_HINTS
            ):
                self.report(
                    node, "no-materialize-in-streaming-path",
                    f"{node.func.id}({identifier}) inside a streaming code "
                    "path materialises the whole corpus in RAM, defeating "
                    "the bounded shard window (docs/streaming.md); iterate "
                    "or index instead",
                )
        if self._sparse_depth:
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in DENSIFY_METHODS:
                    self.report(
                        node, "no-densify-in-sparse-path",
                        f".{func.attr}() inside a sparse code path "
                        "materialises the dense (N, N) matrix the CSR "
                        "backend exists to avoid (docs/sparse.md)",
                    )
                elif (
                    isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                ):
                    if func.attr == "eye":
                        self.report(
                            node, "no-densify-in-sparse-path",
                            "np.eye allocates a dense (N, N) matrix inside "
                            "a sparse code path; use CSRMatrix.with_self_loops "
                            "or index arithmetic instead (docs/sparse.md)",
                        )
                    elif func.attr in DENSE_ALLOCATORS and node.args:
                        shape = node.args[0]
                        if (
                            isinstance(shape, ast.Tuple)
                            and len(shape.elts) == 2
                            and ast.dump(shape.elts[0]) == ast.dump(shape.elts[1])
                        ):
                            self.report(
                                node, "no-densify-in-sparse-path",
                                f"np.{func.attr} with a square (n, n) shape "
                                "inside a sparse code path is an O(N²) "
                                "allocation (docs/sparse.md)",
                            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_np_random(node.value) and node.attr not in ALLOWED_NP_RANDOM:
            self.report(
                node, "no-global-numpy-random",
                f"np.random.{node.attr} uses the process-global legacy RNG "
                "(non-deterministic under parallel workers); use "
                "np.random.default_rng / SeedSequence streams",
            )
        self.generic_visit(node)


def lint_file(path: Path) -> list[str]:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: [syntax] {exc.msg}"]
    linter = Linter(path)
    linter.visit(tree)
    relative = path.relative_to(REPO) if path.is_relative_to(REPO) else path
    return [
        f"{relative}:{line}: [{rule}] {message}"
        for line, rule, message in sorted(linter.findings)
    ]


def lint_paths(paths: list[Path]) -> list[str]:
    findings: list[str] = []
    for root in paths:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            findings.extend(lint_file(path))
    return findings


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(p) for p in argv] if argv else [REPO / p for p in DEFAULT_PATHS]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"lint: no such path(s): {', '.join(map(str, missing))}")
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    checked = sum(
        1 if p.is_file() else len(list(p.rglob("*.py"))) for p in paths
    )
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"lint: {checked} files checked, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
