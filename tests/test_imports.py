"""Every module import in the package and the tests is used, and every export is read.

The checks walk the syntax tree with the standard ``ast`` module, so they
need no linter.  Package ``__init__.py`` files are skipped, since their
imports are the public re-exports, and ``__future__`` imports bind no name.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for path in [*(ROOT / "src" / "swapnas").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]


def names_read(source: str) -> set[str]:
    """Names ``source`` reads as a variable or an attribute, each outside the def or class that defines it."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name and isinstance(node.ctx, ast.Load) and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return found


def test_every_export_is_read_outside_the_tests():
    package = ROOT / "src" / "swapnas"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    paths = [*package.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    sources = [path.read_text(encoding="utf-8") for path in paths if path.name != "__init__.py"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += [textwrap.dedent(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    assert sorted(exported - set().union(*map(names_read, sources))) == []


def test_check_skips_a_read_inside_its_own_definition():
    source = "import os\ndef f(n):\n    return f(n - 1) + os.sep\nclass C:\n    x = C\n"
    assert names_read(source) == {"n", "os", "sep"}
