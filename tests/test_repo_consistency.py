"""Repository self-consistency: docs, benchmarks and code agree."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestReadmeReferences:
    def test_every_quickstart_example_exists(self):
        readme = (REPO / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("python examples/"):
                script = line.split()[1]
                assert (REPO / script).is_file(), script

    def test_every_listed_benchmark_exists(self):
        readme = (REPO / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("| `test_") and "`" in line:
                name = line.split("`")[1]
                assert (REPO / "benchmarks" / name).is_file(), name

    def test_docs_exist(self):
        for doc in ("api.md", "datasets.md", "reproducing.md",
                    "design_notes.md", "tutorial_custom_pooling.md",
                    "batching.md", "observability.md", "checkpointing.md",
                    "parallelism.md", "sparse.md", "serving.md",
                    "streaming.md"):
            assert (REPO / "docs" / doc).is_file(), doc


class TestPytestMarkers:
    """Every custom marker used in the suite is registered, so a typo'd
    or unregistered marker fails tier-1 (pytest's own --strict-markers
    only fires for the files a given run collects)."""

    # markers pytest ships with; everything else must be registered
    BUILTIN = {
        "parametrize", "skip", "skipif", "xfail",
        "usefixtures", "filterwarnings",
    }

    @staticmethod
    def _registered_markers() -> set[str]:
        with (REPO / "pyproject.toml").open("rb") as fh:
            config = tomllib.load(fh)
        lines = config["tool"]["pytest"]["ini_options"]["markers"]
        return {line.split(":")[0].strip() for line in lines}

    @staticmethod
    def _used_markers() -> set[str]:
        used = set()
        for path in sorted((REPO / "tests").glob("test_*.py")) + sorted(
            (REPO / "benchmarks").glob("test_*.py")
        ):
            used.update(re.findall(r"pytest\.mark\.(\w+)", path.read_text()))
        return used

    def test_every_used_marker_is_registered(self):
        unregistered = self._used_markers() - self.BUILTIN - self._registered_markers()
        assert not unregistered, (
            f"markers used but not registered in pyproject.toml: "
            f"{sorted(unregistered)}"
        )

    def test_every_registered_marker_is_used(self):
        """A registered marker no test carries is a stale registration
        (or a typo'd suite) — fail either way so the registry stays an
        accurate map of the gate suites."""
        unused = self._registered_markers() - self._used_markers()
        assert not unused, (
            f"markers registered in pyproject.toml but used by no test: "
            f"{sorted(unused)}"
        )

    def test_new_suite_markers_registered(self):
        assert {
            "checkpoint", "faultinject", "parallel", "bench", "sparse",
            "serve", "streaming",
        } <= self._registered_markers()


class TestDesignDocCoverage:
    def test_every_paper_experiment_has_a_benchmark(self):
        design = (REPO / "DESIGN.md").read_text()
        for line in design.splitlines():
            if "benchmarks/test_" in line:
                name = line.split("benchmarks/")[1].split("`")[0]
                assert (REPO / "benchmarks" / name).is_file(), name

    def test_experiments_doc_covers_all_paper_tables(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for heading in ("Table 2", "Table 3", "Table 4", "Table 5",
                        "Table 6", "Table 7", "Fig. 4", "Fig. 5", "Fig. 6"):
            assert heading in experiments, heading


class TestBenchmarksAreSelfContained:
    def test_each_benchmark_prints_and_persists(self):
        for path in sorted((REPO / "benchmarks").glob("test_*.py")):
            source = path.read_text()
            assert "run_once" in source, path.name
            assert re.search(r"persist_(bench_)?rows\(", source), path.name

    def test_no_benchmark_reaches_into_tools(self):
        """Benchmarks import the library, never a script under tools/:
        neither by putting tools/ on ``sys.path`` nor by importing a
        tools module."""
        tool_modules = {"tools"} | {
            path.stem for path in (REPO / "tools").glob("*.py")
        }
        for path in sorted((REPO / "benchmarks").glob("*.py")):
            source = path.read_text()
            assert not re.search(r"sys\.path\..*tools", source), path.name
            imported = set()
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
            assert not imported & tool_modules, (path.name, imported)

    def test_examples_have_docstrings_and_main(self):
        for path in sorted((REPO / "examples").glob("*.py")):
            source = path.read_text()
            assert source.startswith('"""'), path.name
            assert '__name__ == "__main__"' in source, path.name


class TestZooMatchesDocs:
    def test_table3_method_names_documented(self):
        from repro.models import zoo

        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for method in zoo.CLASSIFICATION_METHODS:
            assert method in experiments, method


class TestTutorialRuns:
    def test_custom_pooling_tutorial_builds_and_trains_batched(
        self, rng, small_graph
    ):
        """The tutorial's operator definition, model-building block,
        usage block and invariant test run as written; one graph's
        logits equal its row of the batch."""
        import numpy as np

        text = (REPO / "docs" / "tutorial_custom_pooling.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        namespace: dict = {}
        # operator, model, single graph and batch, invariant test
        for block in blocks[:4]:
            exec(compile(block, "tutorial_custom_pooling.md", "exec"), namespace)
        namespace["test_degree_pool_properties"](rng, small_graph)
        model, graphs = namespace["model"], namespace["graphs"]
        assert namespace["one"].shape == (2,)
        assert namespace["batch"].shape == (len(graphs), 2)
        assert np.isfinite(float(namespace["loss"].data))
        model.eval()
        batch = model(graphs).data
        for i, graph in enumerate(graphs):
            assert np.abs(model(graph).data - batch[i]).max() < 1e-6, i


def _names_used(statement: ast.AST, skip_imports: bool) -> set[str]:
    """Identifiers a statement reads: names, attributes and, unless
    ``skip_imports``, the names it imports."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not skip_imports:
            used.update(alias.name for alias in node.names)
    return used


class TestSrcHoldsNoTestOnlyCode:
    """Every public top-level function or class in ``src/`` is named in
    docs/api.md or used outside ``tests/``: by a ``src/`` statement other
    than its own definition (a package ``__init__``'s re-export is not a
    use), or by ``bench/``, ``benchmarks/``, ``examples/`` or ``tools/``.
    Code only tests reach belongs in ``tests/`` or nowhere."""

    USERS = ("bench", "benchmarks", "examples", "tools")

    def test_every_public_definition_has_a_user_or_an_api_entry(self):
        api = (REPO / "docs" / "api.md").read_text()
        defined: list[tuple[str, str]] = []
        users: set[str] = set()
        for path in sorted((REPO / "src").rglob("*.py")):
            reexports = path.name == "__init__.py"
            for statement in ast.parse(path.read_text()).body:
                own = getattr(statement, "name", None)
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not own.startswith("_"):
                    defined.append((str(path.relative_to(REPO)), own))
                users |= _names_used(statement, skip_imports=reexports) - {own}
        for directory in self.USERS:
            for path in sorted((REPO / directory).rglob("*.py")):
                users |= _names_used(ast.parse(path.read_text()), False)
        unused = [
            f"{module}: {name}"
            for module, name in defined
            if name not in users and not re.search(rf"\b{name}\b", api)
        ]
        assert not unused, (
            "public definitions no code outside tests/ uses and docs/api.md "
            f"does not name: {unused}"
        )


class TestTrainConfigFieldsHaveCallers:
    """Every ``TrainConfig`` field is passed by keyword to a
    ``TrainConfig(...)`` call in ``src/`` or one of
    :attr:`TestSrcHoldsNoTestOnlyCode.USERS`.  A training option no
    caller sets changes neither results nor measured speed; it only
    keeps a code path in ``fit`` that tests alone reach."""

    def test_every_field_is_set_outside_tests(self):
        trainer = REPO / "src" / "repro" / "training" / "trainer.py"
        (config,) = (
            node
            for node in ast.parse(trainer.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name == "TrainConfig"
        )
        fields = {
            node.target.id
            for node in config.body
            if isinstance(node, ast.AnnAssign)
        }
        passed = set()
        for directory in ("src",) + TestSrcHoldsNoTestOnlyCode.USERS:
            for path in sorted((REPO / directory).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call) and "TrainConfig" in _names_used(
                        node.func, skip_imports=True
                    ):
                        passed.update(kw.arg for kw in node.keywords)
        assert fields, "found no TrainConfig fields"
        unset = sorted(fields - passed)
        assert not unset, f"TrainConfig fields no caller outside tests/ sets: {unset}"


class TestRuntimeDependencies:
    """The library runs on numpy and scipy alone.  networkx is a
    ``dev`` extra: the suite cross-checks against it through
    ``tests/networkx_interop.py``, and no module under ``src/`` imports
    it."""

    def test_no_src_module_imports_networkx(self):
        importers = []
        for path in sorted((REPO / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "networkx" for name in names):
                    importers.append(f"{path.relative_to(REPO)}:{node.lineno}")
        assert not importers, importers

    def test_runtime_dependencies_are_numpy_and_scipy(self):
        with (REPO / "pyproject.toml").open("rb") as fh:
            project = tomllib.load(fh)["project"]
        names = [
            re.match(r"[A-Za-z0-9_.-]+", requirement)[0]
            for requirement in project["dependencies"]
        ]
        assert names == ["numpy", "scipy"]


class TestLayering:
    def test_the_model_layers_import_no_data_module(self):
        """``repro.tensor``, ``repro.gnn``, ``repro.pooling`` and
        ``repro.core`` take arrays, CSR matrices and ``Slots``; building
        batches from graphs is ``repro.data``'s job, above them."""
        code = (
            "import sys\n"
            "import repro.tensor, repro.gnn, repro.pooling, repro.core\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.data')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert result.stdout.strip() == "[]", result.stdout
