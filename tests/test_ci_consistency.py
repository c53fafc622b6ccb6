"""The CI workflow runs the stages tools/ci.sh defines.

``.github/workflows/ci.yml`` runs in GitHub Actions; each of its
``stage: <x>`` steps runs ``tools/ci.sh <x>``, so the commands of a
stage are written once, in ci.sh, and a local ``tools/ci.sh`` runs
exactly what CI runs.  This suite checks the wiring: the workflow's
stage steps are the canonical stages in order and each calls ci.sh
with its own name, ci.sh declares the same stages, and its
``bench-compare`` stage runs the bench tests and then the benchmark's
self-tests.

Parsing is textual (no YAML dependency): workflow stages are the
``name: "stage: <x>"`` steps and their ``run:`` lines, ci.sh stages
the ``runs <x>`` guards.
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


def workflow_stage_steps() -> list[tuple[str, str]]:
    """``(stage, run command)`` of each ``stage: <x>`` workflow step."""
    text = WORKFLOW.read_text()
    return re.findall(
        r'name:\s*"stage:\s*([\w-]+)"\n\s*run:\s*(.*)', text
    )


def ci_sh_stages() -> list[str]:
    text = CI_SH.read_text()
    return re.findall(r"^if runs ([\w-]+); then$", text, flags=re.MULTILINE)


def ci_sh_stage_commands(stage: str) -> list[str]:
    """Normalised commands inside ci.sh's ``if runs <stage>`` block."""
    text = CI_SH.read_text()
    match = re.search(
        rf"^if runs {re.escape(stage)}; then\n(.*?)^fi$",
        text, flags=re.MULTILINE | re.DOTALL,
    )
    assert match, f"tools/ci.sh has no {stage} stage"
    commands = []
    for line in match.group(1).splitlines():
        line = line.strip()
        if line and not line.startswith("stage "):
            commands.append(re.sub(r"\s+", " ", line))
    return commands


class TestStagesMatch:
    def test_workflow_declares_the_canonical_stages_in_order(self):
        stages = re.findall(r'name:\s*"stage:\s*([\w-]+)"', WORKFLOW.read_text())
        assert stages == EXPECTED_STAGES
        # each stage's name line is followed by its run line
        assert [stage for stage, _ in workflow_stage_steps()] == stages

    def test_each_workflow_stage_runs_its_ci_sh_stage(self):
        for stage, command in workflow_stage_steps():
            assert command.strip() == f"tools/ci.sh {stage}", stage

    def test_ci_sh_declares_the_canonical_stages_in_order(self):
        assert ci_sh_stages() == EXPECTED_STAGES

    def test_bench_compare_runs_the_bench_tests_then_the_benchmark(self):
        assert ci_sh_stage_commands("bench-compare") == BENCH_COMMANDS


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
