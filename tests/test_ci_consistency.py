"""The CI workflow and its local mirror stay in lock-step.

``.github/workflows/ci.yml`` runs in GitHub Actions; ``tools/ci.sh``
is the network-free local mirror.  Both declare the same named stages
(``lint``, ``tier-1``, ``bench-compare``); this suite parses the two
files and fails when they drift — a stage added to one side only, or a
command that differs between them.

Parsing is textual (no YAML dependency): workflow stages are the
``name: "stage: <x>"`` steps, ci.sh stages the ``runs <x>`` guards.
"""

import os
import re
import stat
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
CI_SH = REPO / "tools" / "ci.sh"

#: the canonical pipeline, in order
EXPECTED_STAGES = ["lint", "tier-1", "bench-compare"]

#: what bench-compare runs: the `bench` benchmark tests' floors, then
#: the repository benchmark's self-tests
BENCH_COMMANDS = [
    "python -m pytest -q benchmarks -m bench",
    "python -m pytest bench -q",
]


def workflow_stages() -> list[str]:
    text = WORKFLOW.read_text()
    return re.findall(r'name:\s*"stage:\s*([\w-]+)"', text)


def ci_sh_stages() -> list[str]:
    text = CI_SH.read_text()
    return re.findall(r"^if runs ([\w-]+); then$", text, flags=re.MULTILINE)


def _commands(text: str, prefix: str = "python") -> list[str]:
    """Normalised ``python ...`` commands found in a blob of text."""
    commands = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("run: "):
            line = line[len("run: "):]
        if line.startswith(prefix + " "):
            commands.append(re.sub(r"\s+", " ", line))
    return commands


class TestStagesMatch:
    def test_workflow_declares_the_canonical_stages_in_order(self):
        assert workflow_stages() == EXPECTED_STAGES

    def test_ci_sh_declares_the_canonical_stages_in_order(self):
        assert ci_sh_stages() == EXPECTED_STAGES

    def test_every_workflow_command_runs_locally(self):
        """Each python command a workflow stage runs appears in ci.sh."""
        workflow_commands = set(_commands(WORKFLOW.read_text()))
        # installation is the runner's job, not a pipeline stage
        workflow_commands = {
            c for c in workflow_commands if "pip install" not in c
        }
        local_commands = set(_commands(CI_SH.read_text()))
        missing = workflow_commands - local_commands
        assert not missing, (
            f"workflow commands missing from tools/ci.sh: {sorted(missing)}"
        )

    def test_every_local_gate_runs_in_the_workflow(self):
        """Each pytest/tool command in ci.sh appears in the workflow."""
        local_commands = {
            c for c in _commands(CI_SH.read_text())
            if "pytest" in c or "tools/" in c
        }
        workflow_commands = set(_commands(WORKFLOW.read_text()))
        missing = local_commands - workflow_commands
        assert not missing, (
            f"ci.sh commands missing from the workflow: {sorted(missing)}"
        )

    def test_bench_compare_runs_the_bench_tests_then_the_benchmark(self):
        for path in (WORKFLOW, CI_SH):
            commands = _commands(path.read_text())
            assert [c for c in commands if c in BENCH_COMMANDS] == (
                BENCH_COMMANDS
            ), path.name


class TestWorkflowShape:
    def test_python_version_matrix(self):
        text = WORKFLOW.read_text()
        match = re.search(r"python-version:\s*\[([^\]]+)\]", text)
        assert match, "workflow has no python-version matrix"
        versions = [v.strip().strip('"') for v in match.group(1).split(",")]
        assert versions == ["3.10", "3.11", "3.12"]

    def test_bench_job_is_non_blocking(self):
        text = WORKFLOW.read_text()
        bench = text.split("  bench:", 1)
        assert len(bench) == 2, "workflow has no bench job"
        assert "continue-on-error: true" in bench[1]

    def test_bench_job_uploads_every_bench_test_result(self):
        """The bench job keeps the rows each `bench` test persists to the
        git-ignored benchmarks/out/."""
        upload = WORKFLOW.read_text().split("  bench:", 1)[1]
        for path in sorted((REPO / "benchmarks").glob("test_*.py")):
            source = path.read_text()
            if "pytest.mark.bench" in source:
                name = re.search(r'persist_bench_rows\(\s*"(\w+)"', source)[1]
                assert f"benchmarks/out/{name}.json" in upload, path.name

    def test_every_setup_python_step_caches_pip(self):
        """Dependency installs reuse the runner's pip cache across runs."""
        text = WORKFLOW.read_text()
        setup_steps = text.count("actions/setup-python")
        assert setup_steps >= 2, "expected setup-python in test and bench jobs"
        assert text.count("cache: pip") == setup_steps, (
            "every actions/setup-python step must set `cache: pip`"
        )

    def test_superseded_runs_are_cancelled(self):
        """A concurrency group cancels in-flight runs on the same ref."""
        text = WORKFLOW.read_text()
        match = re.search(
            r"^concurrency:\n((?:[ \t]+\S.*\n)+)", text, flags=re.MULTILINE
        )
        assert match, "workflow has no top-level concurrency block"
        block = match.group(1)
        assert "group:" in block and "github.ref" in block
        assert "cancel-in-progress: true" in block

    def test_ci_sh_is_executable(self):
        mode = os.stat(CI_SH).st_mode
        assert mode & stat.S_IXUSR, "tools/ci.sh is not executable"
