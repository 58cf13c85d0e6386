"""The demos are not run by the suite; this keeps their swapnas imports valid."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


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
