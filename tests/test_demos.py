"""Each demo runs to completion, and its swapnas imports stay valid.

Every ``demos/*.py`` runs in a subprocess with one BLAS thread and the
test's tmp dir as ``TMPDIR``, and must exit 0.  ``score_a_cell.py`` asserts
its own invariants; ``evolutionary_search.py`` must also report an exact
resume.  The four demos take a few seconds together.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# A line each demo must print, where its exit code alone does not show success.
REQUIRED_LINES = {
    "evolutionary_search.py": "resume-from-checkpoint reproduces the run exactly: True",
}


def swapnas_imports(path):
    """(module, name) pairs a script imports from the swapnas package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "swapnas":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "swapnas":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    for module, name in swapnas_imports(path):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name} imports missing {module}.{name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "TMPDIR": str(tmp_path), "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    if path.name in REQUIRED_LINES:
        assert REQUIRED_LINES[path.name] in proc.stdout.splitlines()
