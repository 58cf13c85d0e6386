"""Each demo and README's library quick start run to completion, and the
demos' swapnas imports stay valid.

Every ``demos/*.py``, and the quick start's code block, runs in a
subprocess with one BLAS thread and the test's tmp dir as ``TMPDIR``, and
must exit 0.  ``score_a_cell.py`` asserts its own invariants;
``evolutionary_search.py`` must also report an exact resume.  The four
demos take a few seconds together, the quick start under one.
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


def run_python(args, tmp_path):
    """Run the interpreter on ``args`` in ``tmp_path``, with one BLAS thread and this checkout's ``src``."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "TMPDIR": str(tmp_path), "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    proc = run_python([str(path)], tmp_path)
    if path.name in REQUIRED_LINES:
        assert REQUIRED_LINES[path.name] in proc.stdout.splitlines()


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "forward_capture(net, batch)" in code
    run_python(["-c", code], tmp_path)
